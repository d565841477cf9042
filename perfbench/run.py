"""Benchmark for spectile: seeded workloads through ``spectile.cli.main``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload

Each CLI call runs in a fresh interpreter, as a user's invocation would, so
spectile's process-lifetime caches start cold every time. The operations of
the workload run in turn: every one at least once, then around again while
the next one is expected to end within ``--seconds``. Every output is checked
against the expected verdict (``verdicts.py``).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (the time one pass
over every operation spends inside ``spectile.cli.main``: the mean time of
each operation, summed), ``setup_s`` (median time to import spectile in a
fresh process) and ``peak_rss_mb`` (the largest over operations of the median
peak RSS of a call). ``wall_s`` takes means, not medians: each operation runs
only two to four times, and the mean averages the host's speed drift over the
whole run where a median picks one call. ``--trace 1`` runs one untraced and
one traced pass and reports the per-layer metrics (``spans.py``). The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
# No bytecode files anywhere (they would land outside the checkout for
# installed packages), so every call imports spectile the same way. One BLAS
# thread: spectile does no floating-point linear algebra, and starting
# OpenBLAS's thread pool made the import take 0.09 to 0.21 s depending on
# the load on the other core.
sys.dont_write_bytecode = True
CHILD_ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")

import gen  # noqa: E402
import spans  # noqa: E402
import verdicts  # noqa: E402

SETUP_PROBES = 5  # import-only processes per run, on top of one per call
RUN_LIMIT_S = 170.0  # a run never starts work beyond this

# Per op group: the per-layer times that the traced run should show to be at
# least half of the group's traced wall time (the layer the group exists for).
DOMINANT = {
    "verify-lifted": ("spectral.verify_s",),
    "search-cyclic": ("cyclotomic.zero_test_s", "spectral.char_sum_s"),
    "search-cube": ("spectral.search_self_s",),
}


class BenchError(RuntimeError):
    pass


def run_child(request: dict, cwd: Path, deadline: float) -> dict:
    """One fresh interpreter; returns the child's report, or an error report."""
    timeout = max(1.0, deadline - time.monotonic())
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(request)]
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=CHILD_ENV, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "code": None, "stdout": ""}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"child exited {proc.returncode}: {' | '.join(tail)}", "code": None,
                "stdout": ""}


def call(op: gen.Op, workdir: Path, deadline: float, span_path: Path | None = None) -> dict:
    """Run one op; the report gains ``took`` (with process start) and, when
    traced, ``totals`` (``spans.op_totals``)."""
    req = {"src": str(SRC), "argv": list(op.argv),
           "spans": str(span_path) if span_path else None}
    t0 = time.monotonic()
    rep = run_child(req, workdir, deadline)
    rep["took"] = time.monotonic() - t0
    rep.setdefault("error", "")
    if span_path is not None and "names" in rep:
        table = spans.SpanTable.load(rep["names"], span_path)
        rep["totals"] = spans.op_totals(table, rep["counters"])
        span_path.unlink()
    return rep


def measure(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    wl = gen.make(name, seed)
    ops = wl.ops
    workdir = HERE / ".work" / f"{name}-{seed}-{os.getpid()}"
    try:
        wl.write(workdir)
        setups = []
        for i in range(SETUP_PROBES + 1):
            rep = run_child({"src": str(SRC), "argv": None, "spans": None}, workdir, deadline)
            if "setup_s" not in rep:
                raise BenchError(f"cannot import spectile: {rep['error']}")
            if i:  # the first probe warms the file cache; not counted
                setups.append(rep["setup_s"])
        done = []  # (op index, report) in the order run
        start = time.monotonic()
        for i in itertools.count():
            k = i % len(ops)
            if i >= len(ops):  # every op has run once; a traced run stops here
                expected = statistics.median(r["took"] for j, r in done if j == k)
                now = time.monotonic()
                if trace or now - start + expected > seconds or now + expected > deadline:
                    break
            done.append((k, call(ops[k], workdir, deadline)))
        traced = [call(op, workdir, deadline, workdir / f"spans-{k}.npz")
                  for k, op in enumerate(ops)] if trace else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run = [(ops[k], r) for k, r in done] + list(zip(ops, traced))
    verdict = verdicts.judge_calls([op for op, _ in run], [r for _, r in run])
    ok = [(k, r) for k, r in done if "run_s" in r]
    setups.extend(r["setup_s"] for _, r in ok)
    op_s = [[r["run_s"] for j, r in ok if j == k] for k in range(len(ops))]
    op_mb = [[r["rss_kb"] / 1024 for j, r in ok if j == k] for k in range(len(ops))]
    out = {
        "calls": len(done),
        "op_s": list(zip(ops, op_s)),
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "problems": verdict.problems,
        "end_to_end": {
            "wall_s": (sum(statistics.mean(v) for v in op_s if v), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (max((statistics.median(v) for v in op_mb if v), default=0.0), "MB"),
        },
    }
    if trace:
        totals = [r.get("totals", {}) for r in traced]
        traced_s = [r.get("run_s", 0.0) for r in traced]
        out["per_layer"] = spans.per_layer_metrics(
            totals, sum(traced_s), sum(r.get("run_s", 0.0) for _, r in done))
        out["dominant"] = {}  # group -> (dominant layers' time, group's traced time)
        for group, metrics in DOMINANT.items():
            mine = [k for k, op in enumerate(ops) if op.group == group]
            if mine:
                part = sum(totals[k].get(m, 0.0) for k in mine for m in metrics)
                out["dominant"][group] = (part, sum(traced_s[k] for k in mine))
    return out


def report(name: str, seed: int, res: dict, trace: bool) -> dict:
    """Print the human-readable lines; return the metrics for the JSON line."""
    share = res["failed"] / res["attempted"]
    print(f"== workload={name} seed={seed} calls={res['calls']} "
          f"attempted={res['attempted']} failed={res['failed']}")
    groups = {}
    for op, times in res["op_s"]:
        print(f"{name} {op.group} {op.label} run_s = " + " ".join(f"{t:.3f}" for t in times))
        if times:
            groups[op.group] = groups.get(op.group, 0.0) + statistics.mean(times)
    if not trace and len(groups) > 1:
        for group, wall in groups.items():
            print(f"{name} {group} wall_s = {wall:.6g} s (part of wall_s)")
    metrics = dict(res["per_layer"] if trace else res["end_to_end"])
    shown = dict(metrics)
    if not trace:
        shown["fail_share"] = (share, "share")
    for metric, (value, unit) in shown.items():
        print(f"{name} {metric} = {value:.6g} {unit}")
    for group, (part, wall) in res.get("dominant", {}).items():
        verdict = "holds" if wall and part >= 0.5 * wall else "DOES NOT HOLD"
        print(f"{name} {group} dominant layer: {' + '.join(DOMINANT[group])} = "
              f"{part / wall if wall else 0:.3f} of its traced wall time "
              f"(claim >= 0.5 {verdict})")
    for p in res["problems"][:20]:
        print(f"{name} problem: {p}", file=sys.stderr)
    return {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*gen.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so subprocess.run kills the running call
    # and the work directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "spectile" / "cli.py").is_file():
        print(f"error: no spectile sources under {SRC}", file=sys.stderr)
        return 2
    names = tuple(gen.WORKLOADS) if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            res = measure(name, args.seed, args.seconds, bool(args.trace), deadline)
            attempted += res["attempted"]
            failed += res["failed"]
            shown = report(name, args.seed, res, bool(args.trace))
            if args.workload == "all":
                shown = {f"{name}.{m}": v for m, v in shown.items()}
            metrics.update(shown)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
