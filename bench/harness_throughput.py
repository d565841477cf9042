"""Time the agreement harness in-process: rows per second of its verdict kernel.

Usage (from the repository root)::

    python3 bench/harness_throughput.py --out BENCH.json
    python3 bench/harness_throughput.py --src /path/to/other/checkout/src

For each group of ``CASES`` one ``run_agreement_harness`` call is timed
whole (``total_s``: drawing the rows and checking them), its
``_candidate_verdicts`` calls together (``kernel_s``): one call for both
streams, or one per stream in a checkout that hands them over one at a
time, and its draws of sampled rows (``draw_s``: the outermost calls of
``_sorted_subsets`` and ``_sampled_splits``). ``rows_per_s`` is the
candidate and split rows over ``kernel_s``. ``Z_6`` and ``Z_8`` are the
benchmark's ``harness-sweep`` budgets, ``2^8`` the elementary abelian
group whose 255 Galois classes give the largest per-row kernel, and
``Z_271`` a group whose 271-point rows make the draw the larger part of the
run. Every figure is the median of ``RUNS`` runs, after one warm-up run that
fills the process-lifetime caches. The script imports spectile from
``--src``, so it times any checkout whose harness checks its streams with
``_candidate_verdicts`` and draws them with those two functions.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7  # of the sampled streams
RUNS = 7  # timed runs per figure
CASES = (("6", 100_000), ("8", 30_000), ("2^8", 200), ("271", 20_000))  # (group, budget)


def time_case(diagonal, spec, budget: int) -> dict:
    kernel: list[tuple[list[int], float]] = []
    draws: list[float] = []
    depth = 0  # _sampled_splits calls _sorted_subsets: time the outermost call only
    wrapped = {name: getattr(diagonal, name)
               for name in ("_candidate_verdicts", "_sorted_subsets", "_sampled_splits")}
    inner = wrapped["_candidate_verdicts"]

    def timed(base, *streams):
        t0 = time.perf_counter()
        result = inner(base, *streams)
        kernel.append(([len(ranks) for ranks in streams], time.perf_counter() - t0))
        return result

    def timed_draw(draw):
        def call(*args):
            nonlocal depth
            depth += 1
            t0 = time.perf_counter()
            try:
                return draw(*args)
            finally:
                depth -= 1
                if not depth:
                    draws.append(time.perf_counter() - t0)
        return call

    diagonal._candidate_verdicts = timed
    diagonal._sorted_subsets = timed_draw(wrapped["_sorted_subsets"])
    diagonal._sampled_splits = timed_draw(wrapped["_sampled_splits"])
    samples: dict[str, list[float]] = {}
    try:
        for run in range(RUNS + 1):
            kernel.clear()
            draws.clear()
            t0 = time.perf_counter()
            report = diagonal.run_agreement_harness(spec, budget=budget, seed=SEED)
            total = time.perf_counter() - t0
            if not run:
                continue
            samples.setdefault("total_s", []).append(total)
            samples.setdefault("kernel_s", []).append(sum(seconds for _, seconds in kernel))
            samples.setdefault("draw_s", []).append(sum(draws))
    finally:
        for name, function in wrapped.items():
            setattr(diagonal, name, function)
    out = {name: statistics.median(values) for name, values in samples.items()}
    rows = [n for lengths, _ in kernel for n in lengths]
    out.update(zip(("candidate_rows", "split_rows"), rows))
    out["rows_per_s"] = sum(rows) / out["kernel_s"]
    out["disagreements"] = report.disagreements
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the spectile package (default: this checkout)")
    parser.add_argument("--out", type=Path, default=None, help="also write the figures as JSON")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.src.resolve()))
    from spectile import diagonal
    from spectile.groups import parse_group_spec

    harness = {f"{group}@{budget}": time_case(diagonal, parse_group_spec(group), budget)
               for group, budget in CASES}

    print(f"harness throughput, seed {SEED}, median of {RUNS} runs")
    print(f"{'case':12} {'total ms':>9} {'kernel ms':>10} {'draw ms':>8} {'candidates':>11} "
          f"{'splits':>8} {'rows/s':>12}")
    for case, row in harness.items():
        print(f"{case:12} {row['total_s'] * 1e3:9.1f} {row['kernel_s'] * 1e3:10.1f} "
              f"{row['draw_s'] * 1e3:8.1f} {row['candidate_rows']:11d} {row['split_rows']:8d} "
              f"{row['rows_per_s']:12,.0f}")

    if args.out is not None:
        report = {
            "seed": SEED,
            "runs": RUNS,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "harness": harness,
        }
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
