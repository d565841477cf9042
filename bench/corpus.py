"""Time the layers of two spectile trees in one process, case by case, interleaved.

Usage (from the repository root)::

    python3 bench/corpus.py --parent /path/to/parent/src --change src --out BENCH.json

Both trees are imported under two package names, and each timed run of a
case runs both trees, the parent first on odd runs and the change first on
even ones, so drift of the machine's speed, and any edge of the tree that
runs first, hits both alike. The cases are the rows of ``table``, one
builder per kind:

- ``batch``: ``_batch_is_zero`` on (rows, L) histograms of 8 random
  exponents, the shapes the harness, the zero sets and the walks of
  ``verify_spectral_pair`` hand it;
- ``scalar``: ``CyclotomicSum.is_zero``, per sum, on 64 histograms of 20
  random exponents;
- ``first_call``: one ``is_zero`` at L after every ``lru_cache`` of the
  module is cleared, the cost a fresh CLI process pays for its exponent;
- ``harness``: one ``run_agreement_harness`` call (``total_s``), its
  ``_candidate_verdicts`` calls (``kernel_s``), its outermost draws of
  sampled rows (``draw_s``) and the candidate and split rows over
  ``kernel_s`` (``rows_per_s``). ``Z_6`` and ``Z_8`` are the benchmark's
  ``harness-sweep`` budgets, ``2^8`` the group whose 255 Galois classes give
  the largest per-row kernel, and ``Z_271`` one whose 271-point rows make
  the draw the larger part of the run;
- ``find_spectrum``: each ``find-spectrum`` op of the ``search`` workload
  of ``perfbench/gen.py`` at seed 23, and an interval of 512 in ``Z_2048``
  and of 1024 in ``Z_4096``, split into the zero set (``_zero_set_ranks``),
  the clique kernel (``_clique_kernel``, with its node count),
  re-verification of a found spectrum, and the rest of the call, which is
  building the orthogonality graph. Each runs at ``workers=1`` and at the
  CLI's default, the CPUs this process may use; a tree whose
  ``find_spectrum`` takes no ``workers`` is called without it;
- ``small_sets``: ``find_spectrum`` per call over 200 seeded random sets
  of at most 6 points, where the fixed cost of a call dominates;
- ``product_diagonal``: ``product_with_diagonal`` of ``[0,n/2)^d`` and
  ``{0,n/2}^d`` in ``Z_n^d``, split into the tiling test and the zero sets;
- ``pipeline``: ``tiling_product_pipeline`` of ``[0,2)^2`` and ``{0,2}^2`` in
  the 4x4 box at lift factor k, the ``pipeline`` command's cases, split into
  the box arithmetic (``lift``, ``box_product``, ``to_quotient`` and
  ``product_lift_identity``) and the verification of the lifted spectrum.

Each record is one layer of one case: the runs of both trees, their
medians and interquartile ranges (numpy's linear percentiles), in how many
runs the change was better (``rows_per_s`` higher, every other layer
lower; ties count for neither), and the median and IQR of the per-run
ratio change / parent where the parent never reads 0. Drift between
processes moves both trees' medians alike, by more than their IQR on the
microsecond cases, but cancels in the ratio. A case that a tree refuses with
``BudgetExceededError`` is recorded as ``"refused"``. Every case runs once
per tree untimed first, which fills the process-lifetime caches, except
those that ``first_call`` clears.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import platform
import random
import sys
import time
from contextlib import contextmanager
from inspect import signature
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUNS = 11  # timed runs per tree and case
SEED = 23  # of the search workload and the small-set draws
HARNESS_SEED = 7
HIGHER_IS_BETTER = {"rows_per_s"}


def load(name: str, src: str):
    """The spectile package of the tree at ``src``, imported as ``name``, with its modules."""
    spec = importlib.util.spec_from_file_location(
        name, f"{src}/spectile/__init__.py", submodule_search_locations=[f"{src}/spectile"])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("cyclotomic", "groups", "spectral", "tiling", "diagonal", "lifting",
                   "setfiles"):
        importlib.import_module(f"{name}.{module}")
    return package


@contextmanager
def clock(*wraps):
    """Seconds per layer of the calls inside, from (module, function, layer) wrappers.

    A call nested in another call of the same layer is not counted again.
    """
    totals = {layer: 0.0 for _, _, layer in wraps}
    depth = dict.fromkeys(totals, 0)
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in wraps]

    def timed(inner, layer):
        def call(*args, **kwargs):
            depth[layer] += 1
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                depth[layer] -= 1
                if not depth[layer]:
                    totals[layer] += time.perf_counter() - t0
        return call

    for module, attr, layer in wraps:
        setattr(module, attr, timed(getattr(module, attr), layer))
    try:
        yield totals
    finally:
        for module, attr, inner in saved:
            setattr(module, attr, inner)


def histograms(L: int, rows: int, points: int, rng) -> np.ndarray:
    exps = rng.integers(0, L, size=(rows, points)) + np.arange(rows)[:, None] * L
    return np.bincount(exps.ravel(), minlength=rows * L).reshape(rows, L)


def seconds(call, per: int = 1) -> float:
    t0 = time.perf_counter()
    call()
    return (time.perf_counter() - t0) / per


def batch(pkg, shape):
    L, rows = shape
    counts = histograms(L, rows, 8, np.random.default_rng([SEED, L, rows]))
    return f"batch L={L} rows={rows}", lambda: {
        "call_s": seconds(lambda: pkg.cyclotomic._batch_is_zero(L, counts))}


def scalar(pkg, L):
    cyc = pkg.cyclotomic
    sums = [cyc.CyclotomicSum(L, row.tolist())
            for row in histograms(L, 64, 20, np.random.default_rng([SEED, L]))]
    return f"scalar L={L}", lambda: {
        "per_sum_s": seconds(lambda: [s.is_zero() for s in sums], len(sums))}


def first_call(pkg, L):
    cyc = pkg.cyclotomic
    one = cyc.CyclotomicSum(L, histograms(L, 1, 2, np.random.default_rng([SEED, L]))[0].tolist())

    def run():
        for attr in list(vars(cyc).values()):
            getattr(attr, "cache_clear", lambda: None)()
        return {"call_s": seconds(one.is_zero)}
    return f"first_call L={L}", run


def harness(pkg, case):
    group, budget = case
    spec, diag = pkg.groups.parse_group_spec(group), pkg.diagonal

    def run():
        with clock((diag, "_candidate_verdicts", "kernel_s"), (diag, "_sorted_subsets", "draw_s"),
                   (diag, "_sampled_splits", "draw_s")) as layers:
            t0 = time.perf_counter()
            report = diag.run_agreement_harness(spec, budget=budget, seed=HARNESS_SEED)
            layers["total_s"] = time.perf_counter() - t0
        layers["rows_per_s"] = (report.checked + report.splits) / layers["kernel_s"]
        layers["disagreements"] = report.disagreements
        return layers
    return f"harness {group}@{budget}", run


def find_spectrum(pkg, op):
    label, text, canonical, workers = op
    S, sp = pkg.setfiles.point_set_from_file(text), pkg.spectral
    split = {"workers": workers} if "workers" in signature(sp.find_spectrum).parameters else {}

    def run():
        with clock((sp, "_zero_set_ranks", "zero_set_s"), (sp, "_clique_kernel", "kernel_s"),
                   (sp, "verify_spectral_pair", "verify_s")) as layers:
            t0 = time.perf_counter()
            res = sp.find_spectrum(S, canonical=canonical, **split)
            total = time.perf_counter() - t0
        layers["graph_s"] = total - sum(layers.values())
        layers.update(total_s=total, nodes=res.nodes)
        return layers
    return f"{label} workers={workers}", run


def small_sets(pkg, group):
    spec = pkg.groups.parse_group_spec(group)
    rng = random.Random(f"{SEED}:{group}")
    sets = [pkg.groups.PointSet.from_ranks(
        spec, rng.sample(range(spec.order), rng.randint(1, min(6, spec.order))))
        for _ in range(200)]
    return f"small_sets {group}", lambda: {
        "per_call_s": seconds(lambda: [pkg.spectral.find_spectrum(S) for S in sets], len(sets))}


def product_diagonal(pkg, group):
    spec, diag = pkg.groups.parse_group_spec(group), pkg.diagonal
    A, B = (pkg.groups.PointSet.from_coords(spec, itertools.product(*axes)) for axes in (
        [range(n // 2) for n in spec.orders], [(0, n // 2) for n in spec.orders]))

    def run():
        with clock((diag, "verify_tiling", "tiling_s"),
                   (diag, "_product_spectral", "spectral_s")) as layers:
            layers["total_s"] = seconds(lambda: diag.product_with_diagonal(A, B))
        return layers
    return f"product_diagonal {group}", run


def pipeline(pkg, k):
    lifting = pkg.lifting
    A = lifting.BoxedSet([4, 4], itertools.product(range(2), repeat=2))
    B = lifting.BoxedSet([4, 4], itertools.product((0, 2), repeat=2))
    box = ("lift", "box_product", "to_quotient", "product_lift_identity")

    def run():
        with clock(*((lifting, f, "lift_s") for f in box),
                   (lifting, "verify_spectral_pair", "verify_s")) as layers:
            layers["total_s"] = seconds(lambda: lifting.tiling_product_pipeline(A, B, k))
        return layers
    return f"pipeline 4x4 k={k}", run


def table(gen) -> list[tuple]:
    """The cases, as (kind, argument) rows: kind(package, argument) builds a case."""
    search = gen.make("search", SEED)
    spectrum_ops = [(op.label, search.files[op.argv[1]], "--canonical" in op.argv)
                    for op in search.ops if op.argv[0] == "find-spectrum"]
    spectrum_ops += [(f"interval-Z{n}", f"group {n}\n" + "".join(f"{i}\n" for i in range(n // 4)),
                      False) for n in (2048, 4096)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return [
        *((batch, shape) for shape in ((2, 4096), (6, 1365), (8, 1024), (24, 341), (24, 4),
                                       (271, 30), (512, 64), (1024, 8), (2520, 3),
                                       (13860, 64), (30030, 8))),
        *((scalar, L) for L in (2, 6, 8, 2520, 5040, 13860)),
        *((first_call, L) for L in (2520, 5040, 13860)),
        *((harness, case) for case in (("6", 100_000), ("8", 30_000), ("2^8", 200),
                                       ("271", 20_000))),
        *((find_spectrum, (*op, workers)) for op in spectrum_ops for workers in (1, cpus)),
        *((small_sets, group) for group in ("12", "2x6", "2^3", "64")),
        (product_diagonal, "24^3"),
        *((pipeline, k) for k in (2, 3, 4)),
    ]


def summary(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(med), 9), "iqr": round(float(q3 - q1), 9)}


def measure(trees: dict, kind, arg) -> list[dict]:
    """The records of one case: one per layer, both trees timed on each run."""
    cases = {tree: kind(pkg, arg) for tree, pkg in trees.items()}
    runs = {tree: [] for tree in trees}
    order = list(trees.items())
    for i in range(RUNS + 1):  # run 0 warms up
        for tree, pkg in order if i % 2 else order[::-1]:
            try:
                layers = cases[tree][1]()
            except pkg.groups.BudgetExceededError:
                layers = None
            if i:
                runs[tree].append(layers)
    records = []
    for layer in next((r[0] for r in runs.values() if r[0] is not None), {}):
        record = {"kind": kind.__name__, "case": cases["parent"][0], "layer": layer}
        for tree, rows in runs.items():
            record[tree] = "refused" if None in rows else {
                "runs": [round(r[layer], 9) for r in rows], **summary([r[layer] for r in rows])}
        if "refused" not in (record["parent"], record["change"]):
            p, c = (np.array([r[layer] for r in runs[tree]]) for tree in ("parent", "change"))
            sign = -1 if layer in HIGHER_IS_BETTER else 1
            record["change_won"] = int(np.sum(sign * (c - p) < 0))
            if p.all():  # paired, so drift of the machine's speed cancels
                record["change_over_parent"] = summary(c / p)
        records.append(record)
    return records


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="src directory of the parent tree")
    ap.add_argument("--change", required=True, help="src directory of the changed tree")
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = ap.parse_args(argv)
    trees = {"parent": load("spectile_parent", args.parent),
             "change": load("spectile_change", args.change)}
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen  # the benchmark's input generator, read-only

    records = []
    for kind, arg in table(gen):
        for record in measure(trees, kind, arg):
            records.append(record)
            medians = (v if isinstance(v, str) else f"{v['median']:.6g}"
                       for v in (record[tree] for tree in trees))
            ratio = record.get("change_over_parent", {}).get("median", "-")
            print(f"{record['case']:32} {record['layer']:14}",
                  *(f"{tree} {m}" for tree, m in zip(trees, medians)),
                  f"ratio {ratio:.4}", f"won {record.get('change_won', '-')}/{RUNS}", flush=True)
    out = {"command": "python3 bench/corpus.py --parent <parent>/src --change src --out FILE",
           "runs_per_tree": RUNS, "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
           "python": platform.python_version(), "numpy": np.__version__, "records": records}
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
