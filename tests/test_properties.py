"""Property tests for the invariants the verifier and the search rely on.

``verify_spectral_pair`` tests each distinct difference once and the zero-set
scan of ``find_spectrum`` tests one element per cyclic subgroup. Both are
checked here against naive references that test every pair and every
element, and the Galois invariance behind the second is checked directly.
"""

from __future__ import annotations

import math
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from spectile.groups import GroupSpec, PointSet
from spectile.spectral import _zero_set_ranks, char_sum_on_set, verify_spectral_pair

SETTINGS = settings(max_examples=150, deadline=None)

small_groups = (
    st.lists(st.integers(2, 8), min_size=1, max_size=3)
    .filter(lambda orders: math.prod(orders) <= 64)
    .map(GroupSpec)
)
zero_set_groups = st.one_of(
    st.integers(2, 96).map(lambda n: GroupSpec([n])),
    st.sampled_from([GroupSpec([4, 6]), GroupSpec([2, 12]), GroupSpec([8, 8])]),
)


def naive_verify(S: PointSet, spectrum: PointSet) -> tuple[bool, tuple | None, int]:
    """(verdict, first failing pair, pairs checked), testing every pair."""
    if len(spectrum) != len(S):
        return False, None, 0
    checked = 0
    for h1, h2 in combinations(spectrum.points, 2):
        if not char_sum_on_set(S, h1 - h2).is_zero():
            return False, (h1, h2), checked
        checked += 1
    return True, None, checked


def naive_zero_set(S: PointSet) -> list[int]:
    spec = S.group
    return [
        r for r in range(1, spec.order)
        if char_sum_on_set(S, spec.element_at(r)).is_zero()
    ]


def subsets(spec: GroupSpec, max_size: int):
    return st.sets(st.integers(0, spec.order - 1), min_size=1, max_size=max_size).map(
        lambda ranks: PointSet.from_ranks(spec, ranks)
    )


@SETTINGS
@given(st.data())
def test_verify_matches_the_all_pairs_reference(data):
    spec = data.draw(small_groups)
    S = data.draw(subsets(spec, 6))
    # Spectra drawn from {0} and the zero set pass many pairs before a
    # failure, so the walk reaches differences it has already tested.
    pool = [0] + naive_zero_set(S)
    if len(pool) < len(S) or data.draw(st.booleans()):
        pool = list(range(spec.order))
    size = len(S) if data.draw(st.integers(0, 9)) else min(len(pool), len(S) + 1)
    ranks = data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size, unique=True))
    spectrum = PointSet.from_ranks(spec, ranks)

    ok, pair, checked = naive_verify(S, spectrum)
    res = verify_spectral_pair(S, spectrum)
    assert res.ok == ok
    if ok:
        assert res.checked_pairs == checked
    else:
        assert res.pair == pair


@SETTINGS
@given(st.data())
def test_zero_set_matches_the_per_element_scan(data):
    spec = data.draw(zero_set_groups)
    S = data.draw(subsets(spec, 12))
    assert _zero_set_ranks(S) == naive_zero_set(S)


@SETTINGS
@given(st.data())
def test_vanishing_is_invariant_under_units(data):
    spec = data.draw(small_groups | zero_set_groups)
    S = data.draw(subsets(spec, 12))
    h = spec.element_at(data.draw(st.integers(0, spec.order - 1)))
    L = spec.exponent
    u = data.draw(st.integers(1, 10 * L).filter(lambda u: math.gcd(u, L) == 1))
    uh = spec.element([u * c for c in h.coords])
    assert char_sum_on_set(S, h).is_zero() == char_sum_on_set(S, uh).is_zero()
