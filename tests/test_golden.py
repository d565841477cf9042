"""Golden CLI corpus: stdout and exit code of fixed invocations, byte for byte.

Each case runs ``spectile.cli.main`` on set files from ``golden/inputs`` and
compares against ``golden/<case>.out``, whose first line is ``exit=<code>``
and whose remaining lines are stdout verbatim. The corpus pins the witnesses
the search and the verifiers report (failing pairs, spectra, node counts), so
an optimization that changes which witness is printed fails here.

Record the expected files of cases that have none yet with::

    PYTHONPATH=src python tests/test_golden.py --record

It writes only missing files, so recording a new case never rewrites an
existing expectation. To change a case on purpose, delete its file first.
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
    # check-tiling: passes, coverage failures (the first element with count 0,
    # also when an element covered twice comes earlier), cardinality, budget
    "check-tiling-z6-ok": ["check-tiling", "z6_A.set", "z6_B.set"],
    "check-tiling-2x4-ok": ["check-tiling", "2x4_A.set", "2x4_B.set"],
    "check-tiling-z4-coverage": ["check-tiling", "z4_A.set", "z4_A.set"],
    "check-tiling-z4-coverage-json": ["check-tiling", "z4_A.set", "z4_A.set", "--json"],
    "check-tiling-z4-coverage-twice-first": ["check-tiling", "z4_B.set", "z4_B.set"],
    "check-tiling-2x4-coverage": ["check-tiling", "2x4_A.set", "2x4_Bbad.set"],
    "check-tiling-cardinality": ["check-tiling", "z6_A.set", "z6_A.set"],
    "check-tiling-cardinality-json": ["check-tiling", "z6_A.set", "z6_A.set", "--json"],
    "check-tiling-budget": ["check-tiling", "z6_A.set", "z6_B.set", "--budget", "5"],
    # the benchmark's 24^3 sets: the box [0,12)^3 tiles with {0,12}^3; with
    # {0,11} x {0,12}^2 the first hole is (23,0,0), and with one corner moved
    # from (12,12,0) to (12,11,0) it is (12,23,0)
    "check-tiling-24pow3-ok": ["check-tiling", "24pow3_box12.set", "24pow3_corners.set"],
    "check-tiling-24pow3-overlap": [
        "check-tiling", "24pow3_box12.set", "24pow3_corners_bad.set",
    ],
    "check-tiling-24pow3-overlap-json": [
        "check-tiling", "24pow3_box12.set", "24pow3_corners_bad.set", "--json",
    ],
    "check-tiling-24pow3-moved-corner": [
        "check-tiling", "24pow3_box12.set", "24pow3_corners_moved.set",
    ],
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
    # order 2^25 is above the enumeration budget, so the plain pair loop runs,
    # on points of ranks up to 2^25 - 1
    "check-spectral-2pow25-ok": ["check-spectral", "2pow25_S2.set", "2pow25_L2.set"],
    "check-spectral-2pow25-pair": ["check-spectral", "2pow25_S2.set", "2pow25_L2_bad.set"],
    # the 4x4 box lifted at k=2, read in 8^4, against its scaled diagonal
    # spectrum (256 points, 32,640 pairs), and with one spectrum point moved
    "check-spectral-lift4x4-ok": [
        "check-spectral", "lift4x4k2_set256.set", "lift4x4k2_diag256.set",
    ],
    "check-spectral-lift4x4-pair": [
        "check-spectral", "lift4x4k2_set256.set", "lift4x4k2_diag256_moved.set",
    ],
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
    # Galois classes of several elements: the units of Z_12 act on 4x12
    "find-spectrum-4x12-found": ["find-spectrum", "4x12_found8.set"],
    "find-spectrum-4x12-found-canonical": ["find-spectrum", "4x12_found8.set", "--canonical"],
    "find-spectrum-4x12-none": ["find-spectrum", "4x12_none4.set"],
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
    # a 20-point subset of Z_2^12, the shape of the benchmark's search sets
    "find-spectrum-z2pow12-cube20": ["find-spectrum", "z2pow12_cube20.set"],
    "find-spectrum-z2pow12-cube20-canonical": [
        "find-spectrum", "z2pow12_cube20.set", "--canonical",
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
    # an 8-point tile of Z_2^10, the shape of the benchmark's complement
    # searches: 128 nodes in both modes, and cut at half of them
    "find-complement-z2pow10-tile8": ["find-complement", "z2pow10_tile8.set"],
    "find-complement-z2pow10-tile8-canonical": [
        "find-complement", "z2pow10_tile8.set", "--canonical",
    ],
    "find-complement-z2pow10-tile8-budget": [
        "find-complement", "z2pow10_tile8.set", "--budget", "64",
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
    "product-diagonal-24pow3-yes": [
        "product-diagonal", "24pow3_box12.set", "24pow3_corners.set",
    ],
    "product-diagonal-24pow3-no": [
        "product-diagonal", "24pow3_box12.set", "24pow3_corners_bad.set",
    ],
    # harness: the trivial group, an exhaustive sweep (1,820 candidates),
    # samples at L=9 (the zero test's slices), in a product, and with
    # --threads 2, which is accepted and selects nothing
    "harness-1": ["harness", "--group", "1"],
    "harness-4-exhaustive": ["harness", "--group", "4"],
    "harness-9-sampled": ["harness", "--group", "9", "--budget", "2000", "--seed", "3"],
    "harness-2x4-json": [
        "harness", "--group", "2x4", "--budget", "3000", "--seed", "11", "--json",
    ],
    "harness-8-threads": [
        "harness", "--group", "8", "--budget", "1000", "--seed", "2", "--threads", "2",
    ],
    # the split stream's modes, counts and draw order: splits sampled over the
    # six divisors of 12, all 3,936 splits of a group of three factors, and
    # orders 64 cyclic and elementary abelian
    "harness-12-sampled": ["harness", "--group", "12", "--budget", "2000", "--seed", "3"],
    "harness-2x2x2-exhaustive": [
        "harness", "--group", "2x2x2", "--budget", "5000", "--seed", "1",
    ],
    "harness-64-sampled": ["harness", "--group", "64", "--budget", "300", "--seed", "1"],
    "harness-2pow6-sampled": ["harness", "--group", "2^6", "--budget", "300", "--seed", "1"],
    # the benchmark's two sampled sweeps, and an order above the pair budget,
    # where neither stream is checked
    "harness-6-sampled-json": [
        "harness", "--group", "6", "--budget", "100000", "--seed", "7", "--threads", "1",
        "--json",
    ],
    "harness-8-sampled-json": [
        "harness", "--group", "8", "--budget", "30000", "--seed", "7", "--threads", "1",
        "--json",
    ],
    "harness-512-above-pair-budget": [
        "harness", "--group", "512", "--budget", "2000", "--seed", "1",
    ],
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
    for case in sorted(CASES):
        expected = GOLDEN / f"{case}.out"
        if not expected.exists():
            expected.write_text(run_case(case), encoding="utf-8")
            print(f"recorded {case}")
