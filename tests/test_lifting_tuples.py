"""Lifting checked against the tuple constructions it replaces, written out here.

``BoxedSet`` keeps its points as ranks of ``prod Z_{k n_i}``; these tests
build the same sets point by point as integer tuples and compare.
"""

from __future__ import annotations

import itertools
import random

import pytest

from spectile.groups import GroupSpec, PointSet
from spectile.lifting import BoxedSet, box_product, lift, to_quotient


def _random_box(rng: random.Random, dims: list[int], lift_factor: int = 1) -> BoxedSet:
    volume = 1
    for n in dims:
        volume *= n * lift_factor
    pts = [tuple(rng.randrange(n * lift_factor) for n in dims)
           for _ in range(rng.randint(1, volume))]
    return BoxedSet(dims, pts, lift_factor=lift_factor)  # repeats and any order


def test_points_are_the_sorted_distinct_tuples():
    rng = random.Random(3)
    for _ in range(100):
        dims = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
        pts = [tuple(rng.randrange(n) for n in dims) for _ in range(rng.randint(0, 12))]
        A = BoxedSet(dims, pts)
        assert A.points == tuple(sorted(set(pts)))
        assert len(A) == len(set(pts))
        assert A == BoxedSet(dims, reversed(pts)) and hash(A) == hash(BoxedSet(dims, pts[::-1]))


def test_lift_matches_the_grid_comprehension():
    rng = random.Random(5)
    for _ in range(200):
        dims = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
        A = _random_box(rng, dims)
        k = rng.randint(1, 4)
        want = sorted(
            tuple(c + m * n for c, m, n in zip(p, shifts, dims))
            for p in A.points
            for shifts in itertools.product(range(k), repeat=len(dims))
        )
        lifted = lift(A, k)
        assert lifted.points == tuple(want)
        assert (lifted.dims, lifted.lift_factor) == (A.dims, k)


def test_box_product_matches_concatenated_tuples():
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randint(1, 3)
        A = _random_box(rng, [rng.randint(1, 4) for _ in range(rng.randint(1, 2))], k)
        B = _random_box(rng, [rng.randint(1, 4) for _ in range(rng.randint(1, 2))], k)
        P = box_product(A, B)
        assert P.points == tuple(sorted(a + b for a in A.points for b in B.points))
        assert (P.dims, P.lift_factor) == (A.dims + B.dims, k)
        assert P == BoxedSet(A.dims + B.dims, P.points, lift_factor=k)


def _to_quotient_by_points(A: BoxedSet, moduli: list[int]) -> PointSet:
    for p in A.points:
        for c, m in zip(p, moduli):
            if c >= m:
                raise ValueError(
                    f"coordinate {c} of point {p} not below modulus {m}; "
                    "reduction would not be injective"
                )
    return PointSet.from_coords(GroupSpec(moduli), A.points)


def test_to_quotient_matches_the_per_point_loop():
    rng = random.Random(11)
    raised = 0
    for _ in range(300):
        k = rng.randint(1, 3)
        dims = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
        A = _random_box(rng, dims, k)
        moduli = [rng.randint(1, k * n + 2) for n in dims]
        try:
            want = _to_quotient_by_points(A, moduli)
        except ValueError as exc:
            raised += 1
            with pytest.raises(ValueError) as got:
                to_quotient(A, moduli)
            assert str(got.value) == str(exc)
        else:
            assert to_quotient(A, moduli) == want
    assert 0 < raised < 300  # both branches exercised


def test_coordinate_beyond_int64_is_named():
    with pytest.raises(ValueError, match=str(2**70)):
        BoxedSet([4], [[2**70]])
