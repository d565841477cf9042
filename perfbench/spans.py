"""Spans around spectile's public functions, and per-layer metrics from them.

``Tracer.install`` wraps every public function of every spectile module, in
each module that binds the name (a re-export such as
``diagonal.verify_spectral_pair`` gets the same wrapper as
``spectral.verify_spectral_pair``), plus two methods that carry a metric:
``CyclotomicSum.is_zero`` and ``PointSet.__init__``. A span is
(name, start, end, parent); spans are kept in flat arrays in memory and
written out once, when the traced operation ends. Generator functions are
not wrapped: their span would close before the body runs.

A span's name is ``<module>.<qualname>`` of the function's definition; the
module is its layer. A layer's self time is the time its spans cover minus
the part covered by their child spans. The hooks that fill the counters run
on a paused span clock, so their cost lands in no layer's time; it shows
only in ``trace.overhead_ratio``, which compares unpaused wall times.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "setfiles", "groups", "cyclotomic", "spectral", "tiling", "diagonal", "lifting")

ZERO_TEST = "cyclotomic.CyclotomicSum.is_zero"
FIND_SPECTRUM = "spectral.find_spectrum"


@functools.lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def difference_count(points) -> int:
    """|Λ - Λ| - 1: the distinct nonzero differences of a point set."""
    orders = points.group.orders
    coords = [p.coords for p in points.points]
    diffs = {tuple((x - y) % n for x, y, n in zip(a, b, orders)) for a in coords for b in coords}
    return len(diffs) - 1


class Tracer:
    """In-memory span recorder; counters are filled by per-function hooks."""

    def __init__(self):
        self.names: list[str] = []
        self.name_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.paused = array("d", [0.0])  # hook time, taken off every span timestamp
        self.counters: Counter = Counter()
        self._seen_sums: set[int] = set()
        self._seen_orders: set[int] = set()
        self._differences: dict = {}
        self._phi_cache = None

    def wrap(self, name: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        name_col, start, end, parent, stack = self.name_col, self.start, self.end, self.parent, self.stack
        paused = self.paused
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_col.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock() - paused[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock() - paused[0]
                stack.pop()
            if hook is not None:
                t0 = clock()
                hook(self, idx, args, result)
                paused[0] += clock() - t0
            return result

        return traced

    def install(self, package) -> None:
        """Wrap spectile's public functions in every module that binds them."""
        import importlib

        wrappers: dict[int, object] = {}
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        cyc, groups = modules[LAYERS.index("cyclotomic")], modules[LAYERS.index("groups")]
        self._phi_cache = cyc.cyclotomic_poly
        for module in modules + [package]:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if not getattr(obj, "__module__", "").startswith(package.__name__ + "."):
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue
                if id(obj) not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__qualname__}"
                    wrappers[id(obj)] = self.wrap(name, obj, _HOOKS.get(name))
                setattr(module, attr, wrappers[id(obj)])
        cyc.CyclotomicSum.is_zero = self.wrap(ZERO_TEST, cyc.CyclotomicSum.is_zero, _zero_test_hook)
        groups.PointSet.__init__ = self.wrap("groups.PointSet.__init__", groups.PointSet.__init__)

    def finish(self) -> dict:
        """Counters that are read once the operation has ended."""
        self.counters["phi_builds"] = self._phi_cache.cache_info().misses
        self.counters["distinct_sums"] = len(self._seen_sums)
        self.counters["table_entries"] = sum(
            euler_phi(L) * (L - euler_phi(L)) for L in self._seen_orders
        )
        return dict(self.counters)

    def save(self, path) -> None:
        np.savez(
            path,
            name_col=np.frombuffer(self.name_col, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def _zero_test_hook(tracer: Tracer, idx: int, args, result) -> None:
    s = args[0]
    key = hash((s.order, s.counts))
    if key not in tracer._seen_sums:
        tracer._seen_sums.add(key)
        tracer._seen_orders.add(s.order)
        phi = euler_phi(s.order)
        # the kernel adds one reduction row of length phi(L) per nonzero
        # coefficient at or above degree phi(L)
        tracer.counters["kernel_madds"] += phi * sum(1 for c in s.counts[phi:] if c)
    p = tracer.parent[idx]
    if result and p >= 0 and tracer.names[tracer.name_col[p]] == FIND_SPECTRUM:
        tracer.counters["zero_set_size"] += 1


def _differences_hook(tracer: Tracer, idx: int, args, result) -> None:
    spectrum = args[1]
    if spectrum not in tracer._differences:
        tracer._differences[spectrum] = difference_count(spectrum)
    tracer.counters["distinct_differences"] += tracer._differences[spectrum]


def _counter_hook(counter: str, value):
    def hook(tracer: Tracer, idx: int, args, result) -> None:
        tracer.counters[counter] += value(args, result)

    return hook


_HOOKS = {
    "spectral.verify_spectral_pair": _differences_hook,
    "spectral.find_spectrum": _counter_hook("search_nodes", lambda a, r: r.nodes),
    "tiling.find_complement": _counter_hook("complement_nodes", lambda a, r: r.nodes),
    "tiling.sum_coverage": _counter_hook("coverage_pairs", lambda a, r: len(a[0]) * len(a[1])),
    "diagonal.check_diagonal_spectral": _counter_hook("shortcuts", lambda a, r: int(r.shortcut)),
    "lifting.lift": _counter_hook("lifted_points", lambda a, r: len(r)),
    "setfiles.point_set_from_file": _counter_hook("points", lambda a, r: len(r)),
    "setfiles.boxed_set_from_file": _counter_hook("points", lambda a, r: len(r)),
}


# ---------------------------------------------------------------------------
# aggregation


class SpanTable:
    """Spans of one traced operation, with self and inclusive time by name."""

    def __init__(self, names, name_col, start, end, parent):
        self.names = list(names)
        self.name_col = np.asarray(name_col, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
        has_parent = self.parent >= 0
        child_time = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur)
        )
        self.self_time = self.dur - child_time

    @classmethod
    def load(cls, names, path) -> SpanTable:
        with np.load(path) as z:
            return cls(names, z["name_col"], z["start"], z["end"], z["parent"])

    def _ids(self, names) -> np.ndarray:
        return np.array([i for i, n in enumerate(self.names) if n in names], dtype=np.int64)

    def _under(self, mask: np.ndarray) -> np.ndarray:
        """Spans with an ancestor in ``mask``."""
        nested = np.zeros(len(mask), dtype=bool)
        anc = self.parent.copy()
        live = anc >= 0
        while live.any():
            idx = np.nonzero(live)[0]
            nested[idx] |= mask[anc[idx]]
            anc[idx] = self.parent[anc[idx]]
            live = anc >= 0
        return nested

    def count(self, *names) -> int:
        return int(np.isin(self.name_col, self._ids(names)).sum())

    def inclusive(self, *names) -> float:
        """Time covered by spans of ``names``, nested ones counted once."""
        mask = np.isin(self.name_col, self._ids(names))
        return float(self.dur[mask & ~self._under(mask)].sum())

    def self_of(self, *names) -> float:
        return float(self.self_time[np.isin(self.name_col, self._ids(names))].sum())

    def layer_self(self, layer: str) -> float:
        return self.self_of(*(n for n in self.names if n.split(".", 1)[0] == layer))


# (metric, unit, how, span names). ``how`` is "incl", "self", "count" or
# "counter" (a hook counter; the name is the counter).
_SPAN_METRICS = (
    ("cyclotomic.phi_build_s", "s", "incl", ("cyclotomic.cyclotomic_poly",)),
    ("cyclotomic.phi_builds", "count", "counter", "phi_builds"),
    ("cyclotomic.zero_tests", "count", "count", (ZERO_TEST,)),
    ("cyclotomic.zero_test_s", "s", "incl", (ZERO_TEST,)),
    ("cyclotomic.kernel_madds", "count", "counter", "kernel_madds"),
    ("cyclotomic.table_entries", "count", "counter", "table_entries"),
    ("spectral.char_sums", "count", "count", ("spectral.char_sum_on_set",)),
    ("spectral.char_sum_s", "s", "incl", ("spectral.char_sum_on_set",)),
    ("spectral.verify_s", "s", "incl", ("spectral.verify_spectral_pair",)),
    ("spectral.pairs_checked", "count", "count", ("spectral.are_orthogonal",)),
    ("spectral.distinct_differences", "count", "counter", "distinct_differences"),
    ("spectral.search_s", "s", "incl", (FIND_SPECTRUM,)),
    ("spectral.search_self_s", "s", "self", (FIND_SPECTRUM,)),
    ("spectral.search_nodes", "count", "counter", "search_nodes"),
    ("spectral.zero_set_size", "count", "counter", "zero_set_size"),
    ("tiling.coverage_s", "s", "incl", ("tiling.sum_coverage",)),
    ("tiling.coverage_pairs", "count", "counter", "coverage_pairs"),
    ("tiling.verify_s", "s", "incl", ("tiling.verify_tiling",)),
    ("tiling.complement_s", "s", "incl", ("tiling.find_complement",)),
    ("tiling.complement_nodes", "count", "counter", "complement_nodes"),
    ("diagonal.multiset_s", "s", "incl", ("diagonal.sum_multiset_check",)),
    ("diagonal.multiset_calls", "count", "count", ("diagonal.sum_multiset_check",)),
    ("diagonal.check_self_s", "s", "self", ("diagonal.check_diagonal_spectral",)),
    ("diagonal.split_s", "s", "incl", ("diagonal.product_with_diagonal",)),
    ("diagonal.subgroup_s", "s", "incl", ("diagonal.diagonal_subgroup",)),
    ("lifting.lift_s", "s", "incl", ("lifting.lift",)),
    ("lifting.spectrum_build_s", "s", "incl", ("lifting.scaled_diagonal_spectrum",)),
    ("lifting.pipeline_self_s", "s", "self", ("lifting.tiling_product_pipeline",)),
    ("lifting.lifted_points", "count", "counter", "lifted_points"),
    ("setfiles.parse_s", "s", "incl", ("setfiles.point_set_from_file", "setfiles.boxed_set_from_file")),
    ("setfiles.points", "count", "counter", "points"),
    ("groups.parse_spec_s", "s", "incl", ("groups.parse_group_spec",)),
    ("groups.pointset_build_s", "s", "incl", ("groups.PointSet.__init__",)),
    ("groups.product_build_s", "s", "incl", ("groups.product_point_set", "groups.product_group")),
)

_CHECKS = ("diagonal.check_diagonal_spectral", "diagonal.product_with_diagonal")


def op_totals(table: SpanTable, counters: dict) -> dict:
    """Additive per-layer quantities of one traced operation."""
    out = {}
    for metric, _unit, how, arg in _SPAN_METRICS:
        if how == "incl":
            out[metric] = table.inclusive(*arg)
        elif how == "self":
            out[metric] = table.self_of(*arg)
        elif how == "count":
            out[metric] = table.count(*arg)
        else:
            out[metric] = counters.get(arg, 0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = table.layer_self(layer)
    out["_distinct_sums"] = counters.get("distinct_sums", 0)
    out["_shortcuts"] = counters.get("shortcuts", 0)
    out["_diag_checks"] = table.count("diagonal.check_diagonal_spectral")
    out["_checks"] = table.count(*_CHECKS)
    out["_checks_s"] = table.inclusive(*_CHECKS)
    out["_spans"] = len(table.dur)
    return out


def per_layer_metrics(totals: list[dict], traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics for a traced pass: sums over ops, then ratios."""
    keys = set().union(*totals)
    s = {k: sum(t.get(k, 0) for t in totals) for k in keys}
    units = {m: u for m, u, _h, _a in _SPAN_METRICS}
    out = {m: (s.get(m, 0), units[m]) for m in units}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (s.get(f"{layer}.self_s", 0.0), "s")
    zero_tests = s.get("cyclotomic.zero_tests", 0)
    out["cyclotomic.distinct_sum_ratio"] = (
        s.get("_distinct_sums", 0) / zero_tests if zero_tests else 0.0, "ratio")
    diag_checks = s.get("_diag_checks", 0)
    out["diagonal.shortcut_share"] = (
        s.get("_shortcuts", 0) / diag_checks if diag_checks else 0.0, "share")
    out["diagonal.checks_per_s"] = (
        s.get("_checks", 0) / s["_checks_s"] if s.get("_checks_s") else 0.0, "1/s")
    out["trace.spans"] = (s.get("_spans", 0), "count")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_ratio"] = (traced_wall / untraced_wall if untraced_wall else 0.0, "ratio")
    return out
