"""Time the exact zero test of two checkouts in one process, interleaved.

Usage (from the repository root)::

    python3 bench/zero_test_kernel.py --parent /path/to/parent/src --change src --out BENCH.json

Both trees are imported under two package names, and each timed run of a
case runs the parent and then the change, so drift of the machine's speed
hits both alike. Case kinds:

- ``batch``: ``_batch_is_zero`` on (rows, L) histograms of 8 random
  exponents, the shapes the harness, the zero sets and the walks of
  ``verify_spectral_pair`` hand it;
- ``scalar``: ``CyclotomicSum.is_zero``, per sum, on 64 histograms of 20
  random exponents;
- ``first_call``: one ``is_zero`` at L after every ``lru_cache`` of the
  module is cleared, the cost a fresh CLI process pays for its exponent.

Each record holds the per-run seconds of both trees, their medians and
quartiles, and in how many runs the change was faster. A case that a tree
refuses is recorded as ``"refused"``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

RUNS = 11
BATCH = ((2, 4096), (6, 1365), (8, 1024), (24, 341), (24, 4), (271, 30), (512, 64),
         (1024, 8), (2520, 3), (13860, 64), (30030, 8))
SCALAR = (2, 6, 8, 2520, 5040, 13860)
FIRST_CALL = (2520, 5040, 13860)


def load(name: str, src: str):
    """The spectile package of the tree at ``src``, imported as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, f"{src}/spectile/__init__.py", submodule_search_locations=[f"{src}/spectile"])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def histograms(L: int, rows: int, points: int, rng) -> np.ndarray:
    exps = rng.integers(0, L, size=(rows, points)) + np.arange(rows)[:, None] * L
    return np.bincount(exps.ravel(), minlength=rows * L).reshape(rows, L)


def timed(pkg, call, per: int = 1):
    """A run: the seconds of ``call()`` over ``per``, or None if the tree refuses it."""
    def run():
        t0 = time.perf_counter()
        try:
            call()
        except pkg.groups.BudgetExceededError:
            return None
        return (time.perf_counter() - t0) / per
    return run


def kernel_cases(pkg, rng_seed: int) -> list:
    cyc = pkg.cyclotomic
    rng = np.random.default_rng(rng_seed)  # the same draws for every tree
    cases = []
    for L, rows in BATCH:
        counts = histograms(L, rows, 8, rng)
        cases.append(("batch", L, rows, timed(pkg, lambda L=L, c=counts: cyc._batch_is_zero(L, c))))
    for L in SCALAR:
        sums = [cyc.CyclotomicSum(L, row.tolist()) for row in histograms(L, 64, 20, rng)]
        cases.append(("scalar", L, 64, timed(pkg, lambda s=sums: [x.is_zero() for x in s], 64)))
    for L in FIRST_CALL:
        one = cyc.CyclotomicSum(L, histograms(L, 1, 2, rng)[0].tolist())

        def first(one=one):
            for attr in list(vars(cyc).values()):
                getattr(attr, "cache_clear", lambda: None)()
            one.is_zero()
        cases.append(("first_call", L, 1, timed(pkg, first)))
    return cases


def summary(runs: list) -> dict | str:
    if None in runs:
        return "refused"
    q1, med, q3 = statistics.quantiles(runs, n=4)
    return {"runs_s": [round(t, 9) for t in runs], "median_s": round(med, 9),
            "iqr_s": round(q3 - q1, 9)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="src directory of the parent tree")
    ap.add_argument("--change", required=True, help="src directory of the changed tree")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    trees = {"parent": load("spectile_parent", args.parent),
             "change": load("spectile_change", args.change)}
    cases = {tree: kernel_cases(pkg, 16) for tree, pkg in trees.items()}
    records = []
    for i, (kind, L, rows, _) in enumerate(cases["parent"]):
        runs = {tree: [] for tree in trees}
        for tree in trees:
            cases[tree][i][3]()  # warm-up: fills the caches, except for first_call
        for _ in range(RUNS):
            for tree in trees:
                runs[tree].append(cases[tree][i][3]())
        record = {"kind": kind, "L": L, "rows": rows}
        record.update({tree: summary(r) for tree, r in runs.items()})
        if None not in runs["parent"] + runs["change"]:
            record["change_faster_runs"] = sum(c < p for p, c in zip(runs["parent"], runs["change"]))
        records.append(record)
        print(kind, L, rows, {tree: v if isinstance(v, str) else v["median_s"]
                              for tree, v in record.items() if tree in trees}, flush=True)
    out = {"command": "python3 bench/zero_test_kernel.py --parent <parent>/src --change src",
           "runs_per_tree": RUNS, "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
           "python": platform.python_version(), "numpy": np.__version__, "cases": records}
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
