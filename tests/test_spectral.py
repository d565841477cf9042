from __future__ import annotations

import math
import random
import sys
from itertools import combinations

import numpy as np
import pytest

from conftest import are_orthogonal, character_pairing, float_char_sum
from spectile.groups import GroupSpec, PointSet
from spectile.spectral import (
    SpectralFailure,
    SpectrumCertificate,
    _galois_labels,
    _unit_generators,
    char_sum_on_set,
    find_spectrum,
    verify_spectral_pair,
)


def _full_set(g: GroupSpec) -> PointSet:
    return PointSet(g, list(g.elements()))


def test_pairing_z4():
    z4 = GroupSpec([4])
    assert character_pairing(z4.element([1]), z4.element([1])) == 1


def test_pairing_trivial_character():
    g = GroupSpec([3, 5])
    h0 = g.identity()
    for e in g.elements():
        assert character_pairing(h0, e) == 0


def test_pairing_mixed_orders():
    g = GroupSpec([2, 3])  # L = 6, weights (3, 2)
    assert character_pairing(g.element([1, 1]), g.element([1, 2])) == (3 + 4) % 6


def test_pairing_is_symmetric():
    g = GroupSpec([4, 6])
    rng = random.Random(1)
    for _ in range(100):
        h = g.element([rng.randrange(4), rng.randrange(6)])
        x = g.element([rng.randrange(4), rng.randrange(6)])
        assert character_pairing(h, x) == character_pairing(x, h)


def test_char_sum_full_group_vanishes():
    for orders in ([5], [2, 3], [4, 2]):
        g = GroupSpec(orders)
        S = _full_set(g)
        for h in g.elements():
            s = char_sum_on_set(S, h)
            assert s.is_zero() == (not h.is_zero())


def test_char_sum_trivial_character_counts_points():
    g = GroupSpec([6])
    S = PointSet.from_coords(g, [[0], [2], [5]])
    s = char_sum_on_set(S, g.identity())
    assert s.counts[0] == 3 and sum(s.counts) == 3


def test_char_sum_half_turn_on_adjacent_pair():
    z4 = GroupSpec([4])
    S = PointSet.from_coords(z4, [[0], [1]])
    s = char_sum_on_set(S, z4.element([2]))
    assert s.is_zero()
    assert abs(float_char_sum([(0,), (1,)], (2,), (4,))) < 1e-12


def test_char_sum_agrees_with_float_oracle():
    rng = random.Random(42)
    for orders in ([8], [3, 4], [2, 2, 3]):
        g = GroupSpec(orders)
        els = list(g.elements())
        for _ in range(50):
            S = PointSet(g, rng.sample(els, rng.randint(1, g.order)))
            h = rng.choice(els)
            exact = char_sum_on_set(S, h)
            approx = float_char_sum([p.coords for p in S], h.coords, orders)
            assert abs(exact.approx_complex() - approx) < 1e-9
            assert exact.is_zero() == (abs(approx) < 1e-9)


def test_char_sum_counts_past_int32_exponents():
    # In Z_65537^2 a character's raw exponents reach about 8.6e9 > 2^31.
    g = GroupSpec([65537, 65537])
    rng = random.Random(11)
    for _ in range(4):
        S = PointSet.from_ranks(g, rng.sample(range(g.order), 50))
        h = g.element([rng.randrange(32768, 65537), rng.randrange(32768, 65537)])
        expected = [0] * g.exponent
        for p in S:
            expected[character_pairing(h, p)] += 1
        assert list(char_sum_on_set(S, h).counts) == expected


def test_are_orthogonal_same_character_never():
    g = GroupSpec([5])
    S = PointSet.from_coords(g, [[0], [2]])
    h = g.element([3])
    assert not are_orthogonal(S, h, h)


def test_are_orthogonal_on_full_group():
    g = GroupSpec([7])
    S = _full_set(g)
    for h1, h2 in combinations(g.elements(), 2):
        assert are_orthogonal(S, h1, h2)


def test_no_orthogonal_pair_on_012_in_z4():
    # brute force over all 6 unordered pairs, cross-checked in floats
    z4 = GroupSpec([4])
    S = PointSet.from_coords(z4, [[0], [1], [2]])
    for h1, h2 in combinations(z4.elements(), 2):
        assert not are_orthogonal(S, h1, h2)
        d = tuple((a - b) % 4 for a, b in zip(h1.coords, h2.coords))
        assert abs(float_char_sum([(0,), (1,), (2,)], d, (4,))) > 1e-9


def test_verify_full_group_with_full_dual():
    g = GroupSpec([2, 3])
    S = _full_set(g)
    res = verify_spectral_pair(S, S)
    assert isinstance(res, SpectrumCertificate)
    assert res.checked_pairs == 6 * 5 // 2


def test_verify_simple_pair():
    z4 = GroupSpec([4])
    S = PointSet.from_coords(z4, [[0], [1]])
    lam = PointSet.from_coords(z4, [[0], [2]])
    res = verify_spectral_pair(S, lam)
    assert isinstance(res, SpectrumCertificate)
    assert res.checked_pairs == 1


def test_verify_rejects_all_triples_for_012():
    z4 = GroupSpec([4])
    S = PointSet.from_coords(z4, [[0], [1], [2]])
    for cand in combinations(z4.elements(), 3):
        res = verify_spectral_pair(S, PointSet(z4, cand))
        assert isinstance(res, SpectralFailure)
        assert res.kind == "pair"


def test_verify_cardinality_mismatch():
    z4 = GroupSpec([4])
    S = PointSet.from_coords(z4, [[0], [1], [2]])
    lam = PointSet.from_coords(z4, [[0], [2]])
    res = verify_spectral_pair(S, lam)
    assert isinstance(res, SpectralFailure)
    assert res.kind == "cardinality"


def test_verify_rejects_empty_set():
    z4 = GroupSpec([4])
    empty = PointSet(z4, [])
    with pytest.raises(ValueError):
        verify_spectral_pair(empty, empty)


def test_find_spectrum_singleton():
    g = GroupSpec([6])
    res = find_spectrum(PointSet.from_coords(g, [[4]]))
    assert res.status == "found"
    assert [p.coords for p in res.certificate.spectrum] == [(0,)]


def test_find_spectrum_simple():
    z4 = GroupSpec([4])
    res = find_spectrum(PointSet.from_coords(z4, [[0], [1]]))
    assert res.status == "found"
    assert [p.coords for p in res.certificate.spectrum] == [(0,), (2,)]


def test_find_spectrum_exhausts_012():
    z4 = GroupSpec([4])
    res = find_spectrum(PointSet.from_coords(z4, [[0], [1], [2]]))
    assert res.status == "exhausted"
    assert res.certificate is None


def test_find_spectrum_budget_outcome_is_distinct():
    g = GroupSpec([8])
    S = PointSet.from_coords(g, [[0], [1], [2], [3]])
    res = find_spectrum(S, budget=1)
    assert res.status == "budget"


def _naive_spectral(S: PointSet) -> bool:
    g = S.group
    k = len(S)
    return any(
        isinstance(verify_spectral_pair(S, PointSet(g, cand)), SpectrumCertificate)
        for cand in combinations(g.elements(), k)
    )


@pytest.mark.parametrize("orders", [[1], [2], [3], [4], [2, 2], [5], [6], [2, 3]])
def test_find_spectrum_matches_naive_enumeration(orders):
    g = GroupSpec(orders)
    els = list(g.elements())
    for k in range(1, g.order + 1):
        for cand in combinations(els, k):
            S = PointSet(g, cand)
            res = find_spectrum(S)
            assert res.status in ("found", "exhausted")
            assert (res.status == "found") == _naive_spectral(S)
            if res.certificate is not None:
                check = verify_spectral_pair(S, res.certificate.spectrum)
                assert isinstance(check, SpectrumCertificate)


def test_find_spectrum_canonical_is_lex_least():
    g = GroupSpec([8])
    S = PointSet.from_coords(g, [[0], [1], [4], [5]])
    res = find_spectrum(S, canonical=True)
    assert res.status == "found"
    witness = res.certificate.spectrum.ranks()
    best = None
    for cand in combinations(range(g.order), len(S)):
        cand_set = PointSet.from_ranks(g, cand)
        if isinstance(verify_spectral_pair(S, cand_set), SpectrumCertificate):
            best = cand
            break  # combinations() is lexicographic
    assert best == witness


def _random_point_sets(g: GroupSpec, rng: random.Random, count: int):
    els = list(g.elements())
    for _ in range(count):
        yield PointSet(g, rng.sample(els, rng.randint(1, g.order)))


@pytest.mark.parametrize("orders", [[8], [2, 5], [12], [16], [4, 4]])
def test_translation_invariance_of_spectrum_and_set(orders):
    g = GroupSpec(orders)
    rng = random.Random(hash(tuple(orders)) & 0xFFFF)
    for S in _random_point_sets(g, rng, 6):
        res = find_spectrum(S)
        lam = (
            res.certificate.spectrum
            if res.certificate is not None
            else PointSet(g, rng.sample(list(g.elements()), len(S)))
        )
        base_ok = isinstance(verify_spectral_pair(S, lam), SpectrumCertificate)
        for t in g.elements():  # exhaustive over translations
            assert (
                isinstance(verify_spectral_pair(S, lam.translate(t)), SpectrumCertificate)
                == base_ok
            )
            assert (
                isinstance(verify_spectral_pair(S.translate(t), lam), SpectrumCertificate)
                == base_ok
            )


@pytest.mark.parametrize("orders", [[6], [2, 4], [3, 3], [16]])
def test_spectral_pair_symmetry(orders):
    g = GroupSpec(orders)
    rng = random.Random(99)
    for S in _random_point_sets(g, rng, 8):
        lam_res = find_spectrum(S)
        if lam_res.certificate is not None:
            lam = lam_res.certificate.spectrum
        else:
            lam = PointSet(g, rng.sample(list(g.elements()), len(S)))
        forward = isinstance(verify_spectral_pair(S, lam), SpectrumCertificate)
        backward = isinstance(verify_spectral_pair(lam, S), SpectrumCertificate)
        assert forward == backward


def test_char_sum_numpy_path_matches_small_path():
    # same sums through the histogram fast path and the plain loop
    g = GroupSpec([40, 20])
    els = list(g.elements())
    rng = random.Random(3)
    big = PointSet(g, rng.sample(els, 600))
    small_chunks = [PointSet(g, big.points[i::3]) for i in range(3)]
    for h in rng.sample(els, 5):
        whole = char_sum_on_set(big, h)
        parts = [char_sum_on_set(chunk, h).counts for chunk in small_chunks]
        assert whole.counts == tuple(map(sum, zip(*parts)))


@pytest.mark.parametrize("orders", [[5040], [3, 9], [271], [16], [4, 12], [3, 6, 9], [5, 10]])
def test_galois_labels_are_the_least_rank_of_each_orbit(orders):
    # Units of order above 2 (up to 12 mod 5040, 6 mod 9, 270 mod 271):
    # pointer doubling must still cover each whole cycle u^j h.
    g = GroupSpec(orders)
    L = g.exponent
    coords = g.decode(np.arange(g.order))
    least = np.arange(g.order)
    for u in range(1, L):
        if math.gcd(u, L) == 1:
            least = np.minimum(least, g.encode(coords * u % np.array(orders)))
    assert np.array_equal(_galois_labels(g), least)


# The exponents of the groups the tests draw or name, up to 5040.
@pytest.mark.parametrize("L", [*range(1, 65), 72, 271, 512, 1024, 1365, 2520, 4096, 5040])
def test_unit_generators_reach_every_unit(L):
    gens = _unit_generators(L)
    reached, todo = {1 % L}, [1 % L]
    while todo:
        x = todo.pop()
        for u in gens:
            if x * u % L not in reached:
                reached.add(x * u % L)
                todo.append(x * u % L)
    assert reached == {u for u in range(L) if math.gcd(u, L) == 1}


@pytest.mark.parametrize("canonical", [False, True])
def test_find_spectrum_runs_1200_levels_deep(canonical, monkeypatch):
    # the whole of Z_1200 is its own spectrum, and its orthogonality graph is
    # complete: one branch per level, 1,200 levels, and the search must not
    # touch the interpreter's recursion limit
    def refuse(limit):
        raise AssertionError("the search changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    g = GroupSpec([1200])
    G = _full_set(g)
    res = find_spectrum(G, canonical=canonical)
    assert res.status == "found"
    assert res.certificate.spectrum == G
    assert res.nodes == 1200
