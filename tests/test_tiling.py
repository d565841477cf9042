from __future__ import annotations

import random
import sys
from itertools import combinations

import pytest

from spectile.groups import GroupSpec, PointSet
from spectile.tiling import (
    TilingCertificate,
    TilingFailure,
    find_complement,
    sum_coverage,
    verify_tiling,
)


def test_coverage_tiling_pair():
    z4 = GroupSpec([4])
    A = PointSet.from_coords(z4, [[0], [1]])
    B = PointSet.from_coords(z4, [[0], [2]])
    assert sum_coverage(A, B) == [1, 1, 1, 1]


def test_coverage_overlapping_pair():
    z4 = GroupSpec([4])
    A = PointSet.from_coords(z4, [[0], [2]])
    assert sum_coverage(A, A) == [2, 0, 2, 0]


def test_coverage_whole_group_with_zero():
    g = GroupSpec([2, 3])
    G = PointSet(g, list(g.elements()))
    Z = PointSet.from_coords(g, [[0, 0]])
    assert sum_coverage(G, Z) == [1] * 6


def test_verify_tiling_pair():
    z4 = GroupSpec([4])
    A = PointSet.from_coords(z4, [[0], [1]])
    B = PointSet.from_coords(z4, [[0], [2]])
    res = verify_tiling(A, B)
    assert isinstance(res, TilingCertificate)
    assert res.coverage == (1, 1, 1, 1)


def test_verify_tiling_whole_group():
    g = GroupSpec([3, 2])
    G = PointSet(g, list(g.elements()))
    Z = PointSet.from_coords(g, [[0, 0]])
    assert verify_tiling(G, Z).ok


def test_verify_tiling_failure_names_uncovered_element():
    z4 = GroupSpec([4])
    A = PointSet.from_coords(z4, [[0], [2]])
    res = verify_tiling(A, A)
    assert isinstance(res, TilingFailure)
    assert res.kind == "coverage"
    assert res.element.coords == (1,) and res.count == 0


def test_verify_tiling_cardinality_reject():
    z4 = GroupSpec([4])
    A = PointSet.from_coords(z4, [[0], [1], [2]])
    B = PointSet.from_coords(z4, [[0], [2]])
    res = verify_tiling(A, B)
    assert isinstance(res, TilingFailure)
    assert res.kind == "cardinality"


def test_verify_tiling_symmetry_exhaustive_small():
    for orders in ([4], [2, 2], [6], [8], [2, 4], [3, 3], [12], [16], [2, 8]):
        g = GroupSpec(orders)
        els = list(g.elements())
        rng = random.Random(g.order)
        for _ in range(30):
            a = rng.randint(1, g.order)
            divisors = [d for d in range(1, g.order + 1) if g.order % d == 0]
            a = rng.choice(divisors)
            A = PointSet(g, rng.sample(els, a))
            B = PointSet(g, rng.sample(els, g.order // a))
            assert verify_tiling(A, B).ok == verify_tiling(B, A).ok


def test_verify_tiling_translation_invariance():
    for orders in ([6], [2, 4], [16]):
        g = GroupSpec(orders)
        els = list(g.elements())
        rng = random.Random(5)
        for _ in range(10):
            divisors = [d for d in range(1, g.order + 1) if g.order % d == 0]
            a = rng.choice(divisors)
            A = PointSet(g, rng.sample(els, a))
            B = PointSet(g, rng.sample(els, g.order // a))
            base = verify_tiling(A, B).ok
            for t in els:
                assert verify_tiling(A.translate(t), B).ok == base


def test_find_complement_simple():
    z4 = GroupSpec([4])
    A = PointSet.from_coords(z4, [[0], [1]])
    res = find_complement(A)
    assert res.status == "found"
    assert [p.coords for p in res.certificate.complement] == [(0,), (2,)]


def test_find_complement_singleton_tile():
    g = GroupSpec([2, 3])
    A = PointSet.from_coords(g, [[0, 0]])
    res = find_complement(A)
    assert res.status == "found"
    assert len(res.certificate.complement) == 6


def test_find_complement_divisibility_error():
    z4 = GroupSpec([4])
    A = PointSet.from_coords(z4, [[0], [1], [2]])
    with pytest.raises(ValueError, match="divide"):
        find_complement(A)


def test_find_complement_budget_outcome():
    g = GroupSpec([12])
    A = PointSet.from_coords(g, [[0], [1], [5], [6]])
    res = find_complement(A, budget=1)
    assert res.status == "budget"


def _naive_has_complement(A: PointSet) -> tuple[bool, tuple[int, ...] | None]:
    g = A.group
    need = g.order // len(A)
    for cand in combinations(range(g.order), need):
        if verify_tiling(A, PointSet.from_ranks(g, cand)).ok:
            return True, cand
    return False, None


@pytest.mark.parametrize("orders", [[1], [4], [2, 2], [6], [8], [2, 4], [9], [12]])
def test_find_complement_matches_naive_enumeration(orders):
    g = GroupSpec(orders)
    els = list(g.elements())
    divisors = [d for d in range(1, g.order + 1) if g.order % d == 0]
    rng = random.Random(17)
    seen = 0
    for a in divisors:
        cands = list(combinations(els, a))
        if len(cands) > 40:
            cands = rng.sample(cands, 40)
        for cand in cands:
            A = PointSet(g, cand)
            res = find_complement(A)
            assert res.status in ("found", "exhausted")
            naive_ok, _ = _naive_has_complement(A)
            assert (res.status == "found") == naive_ok
            if res.certificate is not None:
                seen += 1
                assert verify_tiling(A, res.certificate.complement).ok
    assert seen > 0


def test_find_complement_canonical_is_lex_least():
    g = GroupSpec([12])
    A = PointSet.from_coords(g, [[0], [3], [6], [9]])
    res = find_complement(A, canonical=True)
    assert res.status == "found"
    naive_ok, first = _naive_has_complement(A)
    assert naive_ok
    assert res.certificate.complement.ranks() == first


def test_mismatched_ambient_rejected():
    A = PointSet.from_coords(GroupSpec([4]), [[0]])
    B = PointSet.from_coords(GroupSpec([2, 2]), [[0, 0]])
    with pytest.raises(ValueError):
        sum_coverage(A, B)


@pytest.mark.parametrize("canonical", [False, True])
def test_find_complement_runs_1200_levels_deep(canonical, monkeypatch):
    # {0} tiles Z_1200 only with the whole group: one row per level, 1,200
    # levels, and the search must not touch the interpreter's recursion limit
    def refuse(limit):
        raise AssertionError("the search changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    g = GroupSpec([1200])
    res = find_complement(PointSet.from_ranks(g, [0]), canonical=canonical)
    assert res.status == "found"
    assert res.certificate.complement.ranks() == tuple(range(1200))
    assert res.nodes == 1200
