from __future__ import annotations

import random

import pytest

from spectile.groups import GroupSpec, PointSet
from spectile.lifting import (
    BoxedSet,
    box_product,
    lift,
    product_lift_identity,
    scaled_diagonal_spectrum,
    tiling_product_pipeline,
    to_quotient,
)
from spectile.spectral import SpectrumCertificate, find_spectrum, verify_spectral_pair
from spectile.tiling import verify_tiling


def test_lift_interval():
    A = BoxedSet([2], [[0], [1]])
    assert lift(A, 3).points == ((0,), (1,), (2,), (3,), (4,), (5,))


def test_lift_by_one_is_identity():
    A = BoxedSet([3, 2], [[0, 0], [2, 1]])
    assert lift(A, 1) == A


def test_lift_single_point_2d():
    A = BoxedSet([2, 2], [[0, 0]])
    assert lift(A, 2).points == ((0, 0), (0, 2), (2, 0), (2, 2))


def test_lift_cardinality_property():
    rng = random.Random(2)
    for _ in range(50):
        d = rng.randint(1, 3)
        dims = [rng.randint(1, 5) for _ in range(d)]
        volume = 1
        for n in dims:
            volume *= n
        npts = rng.randint(1, volume)
        pts = set()
        while len(pts) < npts:
            pts.add(tuple(rng.randrange(n) for n in dims))
        A = BoxedSet(dims, pts)
        k = rng.randint(1, 3)
        assert len(lift(A, k)) == len(A) * k**d


def test_lift_requires_base_box():
    A = lift(BoxedSet([2], [[0]]), 2)
    with pytest.raises(ValueError, match="base-boxed"):
        lift(A, 2)


def test_boxed_set_rejects_out_of_box():
    with pytest.raises(ValueError):
        BoxedSet([2, 2], [[0, 2]])


def test_product_lift_identity_example():
    A = BoxedSet([2], [[0]])
    B = BoxedSet([2], [[0], [1]])
    assert product_lift_identity(A, B, 2)
    lhs = box_product(lift(A, 2), lift(B, 2))
    assert lhs.points == tuple((a, b) for a in (0, 2) for b in (0, 1, 2, 3))


def test_product_lift_identity_k1():
    A = BoxedSet([3], [[1]])
    B = BoxedSet([2], [[0], [1]])
    assert product_lift_identity(A, B, 1)
    assert box_product(A, B) == lift(box_product(A, B), 1)


def test_product_lift_identity_random():
    rng = random.Random(8)
    for _ in range(60):
        na, nb = rng.choice([4, 6]), rng.choice([4, 6])
        A = BoxedSet([na], [[c] for c in rng.sample(range(na), rng.randint(1, na))])
        B = BoxedSet([nb], [[c] for c in rng.sample(range(nb), rng.randint(1, nb))])
        k = rng.choice([2, 3])
        assert product_lift_identity(A, B, k)


def test_to_quotient_lifted_set_is_injective():
    A = BoxedSet([2], [[0], [1]])
    lifted = lift(A, 3)
    ps = to_quotient(lifted, [6])
    assert len(ps) == 6


def test_to_quotient_plain():
    A = BoxedSet([2], [[0], [1]])
    ps = to_quotient(A, [2])
    assert ps.group == GroupSpec([2])
    assert [p.coords for p in ps.points] == [(0,), (1,)]


def test_to_quotient_rejects_collapse():
    A = BoxedSet([4], [[0], [3]])
    with pytest.raises(ValueError, match="injective"):
        to_quotient(A, [2])


def test_spectral_in_quotient_interval():
    res = find_spectrum(to_quotient(BoxedSet([2], [[0], [1]]), [4]))
    assert res.status == "found"
    assert [p.coords for p in res.certificate.spectrum] == [(0,), (2,)]


def test_spectral_in_quotient_whole_box():
    res = find_spectrum(to_quotient(BoxedSet([5], [[c] for c in range(5)]), [5]))
    assert res.status == "found"


def test_spectral_in_quotient_exhausts():
    res = find_spectrum(to_quotient(BoxedSet([4], [[0], [1], [2]]), [4]))
    assert res.status == "exhausted"


def test_scaled_diagonal_spectrum_size():
    lam = scaled_diagonal_spectrum([4], 2)
    assert lam.group == GroupSpec([8, 8])
    assert len(lam) == 4 * 2 * 2


def test_pipeline_all_pass():
    A = BoxedSet([4], [[0], [1]])
    B = BoxedSet([4], [[0], [2]])
    rep = tiling_product_pipeline(A, B, 2)
    assert [s.status for s in rep.steps] == ["pass", "pass", "pass", "pass"]
    assert rep.all_pass
    assert rep.moduli == (8, 8)


def test_pipeline_stops_at_failed_tiling():
    A = BoxedSet([4], [[0], [2]])
    rep = tiling_product_pipeline(A, A, 2)
    assert [s.status for s in rep.steps] == ["fail", "skipped", "skipped", "skipped"]
    assert not rep.all_pass


def test_pipeline_whole_box_times_origin():
    A = BoxedSet([6], [[c] for c in range(6)])
    B = BoxedSet([6], [[0]])
    for k in (1, 2):
        rep = tiling_product_pipeline(A, B, k)
        assert rep.all_pass


def test_pipeline_rejects_oversized_k():
    A = BoxedSet([4], [[0], [1]])
    B = BoxedSet([4], [[0], [2]])
    with pytest.raises(ValueError, match="cap"):
        tiling_product_pipeline(A, B, 5)


def _random_tiling_pair(rng: random.Random) -> tuple[BoxedSet, BoxedSet, list[int]]:
    # build (A, B) that tile the box by a coordinatewise interval/step split
    n = rng.choice([4, 6])
    a = rng.choice([d for d in (1, 2, 3) if n % d == 0])
    A = BoxedSet([n], [[i] for i in range(a)])
    B = BoxedSet([n], [[a * j] for j in range(n // a)])
    return A, B, [n]


def test_lifted_tile_keeps_its_complement():
    # if (A, B) tile the box quotient, A(k) tiles the k-scaled quotient with
    # the same B (note |A(k)|*|B| matches the scaled order; lifting both
    # factors would overshoot it by k^d)
    rng = random.Random(21)
    for _ in range(20):
        A, B, dims = _random_tiling_pair(rng)
        k = rng.choice([2, 3])
        assert verify_tiling(to_quotient(A, dims), to_quotient(B, dims)).ok
        lifted_moduli = [k * n for n in dims]
        B_lifted_ambient = BoxedSet(lifted_moduli, B.points)
        assert verify_tiling(
            to_quotient(lift(A, k), lifted_moduli),
            to_quotient(B_lifted_ambient, lifted_moduli),
        ).ok


def test_lifted_diagonal_spectrum_verifies_directly():
    # the step-(iv) construction, checked through the generic verifier
    for dims, k in (([4], 2), ([4], 3), ([2, 2], 2)):
        base = GroupSpec(dims)
        A = BoxedSet(dims, [e.coords for e in base.elements()])
        B = BoxedSet(dims, [[0] * len(dims)])
        lifted = lift(box_product(A, B), k)
        Cq = to_quotient(lifted, [k * n for n in dims] * 2)
        lam = scaled_diagonal_spectrum(dims, k)
        assert isinstance(verify_spectral_pair(Cq, lam), SpectrumCertificate)


def test_pipeline_step_four_never_fails_after_one_to_three():
    rng = random.Random(13)
    for _ in range(12):
        A, B, dims = _random_tiling_pair(rng)
        k = rng.choice([1, 2, 3])
        rep = tiling_product_pipeline(A, B, k)
        statuses = {s.name: s.status for s in rep.steps}
        if all(
            statuses[n] == "pass"
            for n in ("tiling", "product-diagonal", "lift-identity")
        ):
            assert statuses["lifted-spectrum"] == "pass", rep.render()
