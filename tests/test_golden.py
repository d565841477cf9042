"""Golden CLI corpus: stdout and exit code of fixed invocations, byte for byte.

Each case runs ``spectile.cli.main`` on set files from ``golden/inputs`` and
compares against ``golden/<case>.out``, whose first line is ``exit=<code>``
and whose remaining lines are stdout verbatim. The corpus pins the witnesses
the search and the verifiers report (failing pairs, spectra, node counts), so
an optimization that changes which witness is printed fails here.

Regenerate the expected files, only when an output change is intended, with::

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"

CASES: dict[str, list[str]] = {
    # check-spectral: failures that name a pair, a pass, a cardinality miss
    "check-spectral-z12-pair": ["check-spectral", "z12_S6.set", "z12_L6_bad.set"],
    "check-spectral-2x6-pair": ["check-spectral", "2x6_S6.set", "2x6_L6_bad.set"],
    "check-spectral-4x4-pair": ["check-spectral", "4x4_S6.set", "4x4_L6_bad.set"],
    "check-spectral-4x4-pair-json": [
        "check-spectral", "4x4_S6.set", "4x4_L6_bad.set", "--json",
    ],
    "check-spectral-4x4-ok": ["check-spectral", "4x4_square.set", "4x4_grid.set"],
    "check-spectral-z12-ok": ["check-spectral", "z12_interval4.set", "z12_spectrum4.set"],
    "check-spectral-cardinality": ["check-spectral", "z12_S6.set", "z12_spectrum4.set"],
    # exponents with a repeated prime factor: 2520 = 2^3 3^2 5 7, 72 = 2^3 3^2
    "check-spectral-z2520-ok": ["check-spectral", "z2520_S12.set", "z2520_L12.set"],
    "check-spectral-z2520-pair": ["check-spectral", "z2520_S12.set", "z2520_L12_bad.set"],
    # find-spectrum: found and exhausted, default and canonical order
    "find-spectrum-z12-found": ["find-spectrum", "z12_found.set"],
    "find-spectrum-z12-found-canonical": ["find-spectrum", "z12_found.set", "--canonical"],
    "find-spectrum-z12-none": ["find-spectrum", "z12_none.set"],
    "find-spectrum-z12-none-canonical": ["find-spectrum", "z12_none.set", "--canonical"],
    "find-spectrum-3x9-found": ["find-spectrum", "3x9_found.set"],
    "find-spectrum-3x9-found-canonical": ["find-spectrum", "3x9_found.set", "--canonical"],
    "find-spectrum-3x9-none": ["find-spectrum", "3x9_none.set"],
    "find-spectrum-3x9-none-canonical": ["find-spectrum", "3x9_none.set", "--canonical"],
    "find-spectrum-3x9-budget": ["find-spectrum", "3x9_found.set", "--budget", "3"],
    "find-spectrum-2x2x4-found": ["find-spectrum", "2x2x4_found.set"],
    "find-spectrum-2x2x4-found-canonical": [
        "find-spectrum", "2x2x4_found.set", "--canonical",
    ],
    "find-spectrum-2x2x4-none": ["find-spectrum", "2x2x4_none.set"],
    "find-spectrum-2x2x4-none-canonical": ["find-spectrum", "2x2x4_none.set", "--canonical"],
    "find-spectrum-z72-found": ["find-spectrum", "z72_found24.set"],
    "find-spectrum-z72-found-canonical": ["find-spectrum", "z72_found24.set", "--canonical"],
    "find-spectrum-z72-none": ["find-spectrum", "z72_none15.set"],
    "find-spectrum-z72-none-canonical": ["find-spectrum", "z72_none15.set", "--canonical"],
    "find-spectrum-6x12-found": ["find-spectrum", "6x12_found24.set"],
    "find-spectrum-6x12-found-canonical": ["find-spectrum", "6x12_found24.set", "--canonical"],
    "find-spectrum-6x12-none": ["find-spectrum", "6x12_none15.set"],
    "find-spectrum-6x12-none-canonical": ["find-spectrum", "6x12_none15.set", "--canonical"],
    "find-spectrum-z64-interval16": ["find-spectrum", "z64_interval16.set"],
    "find-spectrum-z64-interval16-canonical": [
        "find-spectrum", "z64_interval16.set", "--canonical",
    ],
    "find-spectrum-z64-interval16-json": ["find-spectrum", "z64_interval16.set", "--json"],
    # searches of hundreds to thousands of nodes pin the exact trees
    "find-spectrum-z2pow10-none": ["find-spectrum", "z2pow10_none12.set"],
    "find-spectrum-z2pow10-none-canonical": [
        "find-spectrum", "z2pow10_none12.set", "--canonical",
    ],
    "find-spectrum-z2pow10-budget-canonical": [
        "find-spectrum", "z2pow10_none12.set", "--canonical", "--budget", "5000",
    ],
    # find-complement: found, exhausted and budget, default and canonical order
    "find-complement-2x4x8-found": ["find-complement", "2x4x8_tile4.set"],
    "find-complement-2x4x8-found-canonical": [
        "find-complement", "2x4x8_tile4.set", "--canonical",
    ],
    "find-complement-2x4x8-found-json": ["find-complement", "2x4x8_tile4.set", "--json"],
    "find-complement-2x4x8-none": ["find-complement", "2x4x8_notile8.set"],
    "find-complement-2x4x8-none-canonical": [
        "find-complement", "2x4x8_notile8.set", "--canonical",
    ],
    "find-complement-z2pow8-none": ["find-complement", "z2pow8_notile16.set"],
    "find-complement-z2pow8-none-canonical": [
        "find-complement", "z2pow8_notile16.set", "--canonical",
    ],
    "find-complement-z4pow4-found": ["find-complement", "z4pow4_tile8.set"],
    "find-complement-z4pow4-budget": [
        "find-complement", "z4pow4_tile8.set", "--budget", "20",
    ],
    "find-complement-z4pow4-budget-canonical": [
        "find-complement", "z4pow4_tile8.set", "--canonical", "--budget", "5000",
    ],
    # pipeline: the 4x4 box at k=2 prints pairs-checked=32640
    "pipeline-4x4-k2": ["pipeline", "box4x4_A.set", "box4x4_B.set", "--k", "2"],
    "pipeline-6-k3": ["pipeline", "box6_A.set", "box6_B.set", "--k", "3"],
    "pipeline-6-k2-json": ["pipeline", "box6_A.set", "box6_B.set", "--k", "2", "--json"],
    "pipeline-6-tiling-fails": ["pipeline", "box6_A.set", "box6_Bbad.set", "--k", "2"],
    # diagonal criterion, both routes
    "diagonal-check-4-graph": ["diagonal-check", "P4_graph.set"],
    "diagonal-check-4-diagonal": ["diagonal-check", "P4_diag.set"],
    "diagonal-check-4-shortcut": ["diagonal-check", "P4_graph.set", "--budget", "1"],
    "diagonal-check-2x3-graph": ["diagonal-check", "P2x3_graph.set"],
    "diagonal-check-2x3-graph-json": ["diagonal-check", "P2x3_graph.set", "--json"],
    "diagonal-check-2x3-rows": ["diagonal-check", "P2x3_rows.set"],
    "product-diagonal-z4-yes": ["product-diagonal", "z4_A.set", "z4_B.set"],
    "product-diagonal-z4-no": ["product-diagonal", "z4_B.set", "z4_B.set"],
    "product-diagonal-z6-yes": ["product-diagonal", "z6_A.set", "z6_B.set"],
    "product-diagonal-2x4-yes": ["product-diagonal", "2x4_A.set", "2x4_B.set"],
    "product-diagonal-2x4-json": ["product-diagonal", "2x4_A.set", "2x4_B.set", "--json"],
}


def _argv(args: list[str]) -> list[str]:
    return [str(INPUTS / a) if a.endswith(".set") else a for a in args]


def run_case(name: str) -> str:
    """``exit=<code>`` followed by the stdout of the case."""
    from spectile.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(_argv(CASES[name]))
    return f"exit={code}\n{out.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert run_case(name) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    for stale in GOLDEN.glob("*.out"):
        stale.unlink()
    for case in sorted(CASES):
        (GOLDEN / f"{case}.out").write_text(run_case(case), encoding="utf-8")
        print(f"recorded {case}")
