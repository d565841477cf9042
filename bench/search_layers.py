"""Time the layers of ``find_spectrum`` in-process, on the benchmark's search inputs.

Usage (from the repository root)::

    python3 bench/search_layers.py --out BENCH.json
    python3 bench/search_layers.py --src /path/to/other/checkout/src

The inputs are the ``search`` workload of ``perfbench/gen.py`` for seed 23,
written to a temporary directory and parsed as the CLI parses them.
For each ``find-spectrum`` operation of the workload, one call of
``find_spectrum`` is split into layers by timing wrappers on the module's
functions:

- ``zero_set_s``: ``_zero_set_ranks``, the vertices of the graph;
- ``kernel_s``: the clique kernel ``_clique_kernel``, with its node count
  ``nodes``;
- ``verify_s``: re-verification of a found spectrum;
- ``graph_s``: the rest of the call, which is building the orthogonality
  graph in the kernel's static order;
- ``total_s``: the whole call.

``small_sets_us`` is the time per ``find_spectrum`` call over a seeded draw of
random sets of at most 6 points in each of a few small groups, where the
fixed cost of a call dominates. Every figure is the median of 7 runs,
after one warm-up run that fills the process-lifetime caches. The script
imports spectile from ``--src``, so it times any checkout whose
``find_spectrum`` hands its rows to ``_clique_kernel``.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 23  # of the search workload and the small-set draw
RUNS = 7  # timed runs per figure
SMALL_GROUPS = ("12", "2x6", "2^3", "64")
SMALL_SETS = 200  # per group
SMALL_MAX_POINTS = 6


class LayerClock:
    """Wraps module functions so that each call adds its time to a named total."""

    def __init__(self):
        self.totals: dict[str, float] = {}

    def wrap(self, module, attr: str, layer: str) -> None:
        inner = getattr(module, attr)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = inner(*args, **kwargs)
            self.totals[layer] = self.totals.get(layer, 0.0) + time.perf_counter() - t0
            return result

        setattr(module, attr, timed)


def search_inputs(gen, setfiles) -> list[tuple[str, object, bool]]:
    """(label, set, canonical) for each find-spectrum op of the search workload."""
    wl = gen.make("search", SEED)
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        wl.write(Path(tmp))
        for op in wl.ops:
            if op.argv[0] != "find-spectrum":
                continue
            text = (Path(tmp) / op.argv[1]).read_text(encoding="utf-8")
            out.append((op.label, setfiles.point_set_from_file(text), "--canonical" in op.argv))
    return out


def time_layers(clock: LayerClock, spectral, S, canonical: bool) -> dict:
    samples: dict[str, list[float]] = {}
    for run in range(RUNS + 1):
        clock.totals.clear()
        t0 = time.perf_counter()
        res = spectral.find_spectrum(S, canonical=canonical)
        total = time.perf_counter() - t0
        if not run:
            continue
        layers = {name: clock.totals.get(name, 0.0)
                  for name in ("zero_set_s", "kernel_s", "verify_s")}
        layers["graph_s"] = total - sum(layers.values())
        layers["total_s"] = total
        for name, value in layers.items():
            samples.setdefault(name, []).append(value)
    out = {name: statistics.median(values) for name, values in samples.items()}
    out.update(nodes=res.nodes, status=res.status)
    return out


def time_small_sets(spectral, groups) -> dict:
    out = {}
    for text in SMALL_GROUPS:
        spec = groups.parse_group_spec(text)
        rng = random.Random(f"{SEED}:{text}")
        sets = []
        for _ in range(SMALL_SETS):
            size = rng.randint(1, min(SMALL_MAX_POINTS, spec.order))
            sets.append(groups.PointSet.from_ranks(spec, rng.sample(range(spec.order), size)))
        per_call = []
        for run in range(RUNS + 1):
            t0 = time.perf_counter()
            for S in sets:
                spectral.find_spectrum(S)
            if run:
                per_call.append((time.perf_counter() - t0) / len(sets) * 1e6)
        out[text] = statistics.median(per_call)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the spectile package (default: this checkout)")
    parser.add_argument("--out", type=Path, default=None, help="also write the figures as JSON")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.src.resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen  # read-only: the benchmark's input generator
    from spectile import groups, setfiles, spectral

    small = time_small_sets(spectral, groups)  # before any wrapper
    inputs = [(label, S, canonical, len(spectral._zero_set_ranks(S)) + 1)
              for label, S, canonical in search_inputs(gen, setfiles)]
    clock = LayerClock()
    clock.wrap(spectral, "_zero_set_ranks", "zero_set_s")
    clock.wrap(spectral, "_clique_kernel", "kernel_s")
    clock.wrap(spectral, "verify_spectral_pair", "verify_s")
    search = {}
    for label, S, canonical, vertices in inputs:
        search[label] = time_layers(clock, spectral, S, canonical)
        search[label]["vertices"] = vertices

    print(f"find_spectrum layers, seed {SEED}, median of {RUNS} runs (ms)")
    print(f"{'op':34} {'V':>5} {'nodes':>7} {'zero set':>9} {'graph':>7} "
          f"{'kernel':>8} {'verify':>7} {'total':>8}")
    for label, row in search.items():
        print(f"{label:34} {row['vertices']:5d} {row['nodes']:7d} "
              + " ".join(f"{row[k] * 1e3:{w}.2f}" for k, w in (
                  ("zero_set_s", 9), ("graph_s", 7), ("kernel_s", 8),
                  ("verify_s", 7), ("total_s", 8))))
    print(f"find_spectrum per call on {SMALL_SETS} random sets of 1-{SMALL_MAX_POINTS} "
          "points (us): " + ", ".join(f"{g} {us:.1f}" for g, us in small.items()))

    if args.out is not None:
        report = {
            "seed": SEED,
            "runs": RUNS,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "search": search,
            "small_sets_us": small,
        }
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
