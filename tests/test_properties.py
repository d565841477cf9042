"""Property tests for the invariants the verifier and the search rely on.

``verify_spectral_pair`` tests each distinct difference once, in numpy
batches for spectra of ``_WALK_MIN_PAIRS`` pairs and more, and the zero-set
scan of ``find_spectrum`` tests one element per Galois class in one batch.
Both are checked here against naive references that test every pair and
every element through the scalar zero test, and the Galois invariance behind
the second is checked directly.
The count table behind ``sum_coverage`` and ``sum_multiset_check`` is checked
against sums of group elements, also in blocks small enough to split small
inputs, and so is the witness both report: with |A||B| = |G|, or |P| = |G|,
the first element (in rank order) that no pair sums to. Every way to build a
``PointSet`` (elements, coordinates, ranks, a translate, a product, a set
file) is checked against element arithmetic, also where ranks approach the
int64 limit, and zero sets against translation. The agreement harness checks its candidates in numpy batches; both
of its verdicts are checked against ``check_diagonal_spectral``, and the table verdict of a product row A x B
against ``verify_tiling(A, B)``. The factorised Fourier route of ``product_with_diagonal``
is checked against the pair check of A x B against the diagonal.
"""

from __future__ import annotations

import contextlib
import math
from collections import Counter
from itertools import combinations
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectile import diagonal, spectral, tiling
from spectile.diagonal import (
    _candidate_verdicts,
    check_diagonal_spectral,
    diagonal_subgroup,
    sum_multiset_check,
)
from spectile.groups import (
    MAX_ORDER,
    GroupElement,
    GroupSpec,
    PointSet,
    product_group,
    product_point_set,
)
from spectile.setfiles import point_set_from_file, serialize_point_set
from spectile.spectral import (
    _WALK_MIN_PAIRS,
    _zero_set_ranks,
    char_sum_on_set,
    verify_spectral_pair,
)
from spectile.tiling import sum_coverage, verify_tiling

SETTINGS = settings(max_examples=150, deadline=None)

small_groups = (
    st.lists(st.integers(2, 8), min_size=1, max_size=3)
    .filter(lambda orders: math.prod(orders) <= 64)
    .map(GroupSpec)
)
zero_set_groups = st.one_of(
    st.integers(2, 96).map(lambda n: GroupSpec([n])),
    st.sampled_from([GroupSpec([4, 6]), GroupSpec([2, 12]), GroupSpec([8, 8])]),
    st.integers(1, 12).map(lambda k: GroupSpec([2] * k)),
    # Galois classes of several elements in several factors
    st.sampled_from([GroupSpec([4, 12]), GroupSpec([3, 6, 9]), GroupSpec([5, 10])]),
)
# Groups with subgroups large enough for spectra above the walk's gate.
walk_groups = st.sampled_from([
    GroupSpec([8, 12]), GroupSpec([4, 4, 8]), GroupSpec([2] * 7), GroupSpec([3, 6, 6]),
    GroupSpec([4, 24]), GroupSpec([2, 4, 12]),
])


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


def subgroup_spectral_pair(data) -> tuple[PointSet, PointSet, list[GroupElement]]:
    """A translate of a subgroup H, a spectrum of it above the walk's gate, and H's annihilator.

    Characters restrict to the same character of H iff they differ by an
    element of the annihilator of H, so one element from each coset of the
    annihilator, each drawn at random, makes a spectrum of H.
    """
    spec = data.draw(walk_groups)
    elements = list(spec.elements())
    H, gens = {spec.identity()}, []
    while len(H) * (len(H) - 1) // 2 < _WALK_MIN_PAIRS:
        gens.append(data.draw(st.sampled_from([g for g in elements if g not in H])))
        grown = H | {x + gens[-1] for x in H}
        while grown != H:
            H, grown = grown, grown | {x + gens[-1] for x in grown}
    assume(len(H) <= 64)  # keeps the all-pairs reference quick
    L = spec.exponent
    w = spec._char_weights
    annihilator = [
        h for h in elements
        if all(sum(a * b * c for a, b, c in zip(w, h.coords, g.coords)) % L == 0 for g in gens)
    ]
    rng = data.draw(st.randoms(use_true_random=False))
    rng.shuffle(elements)
    reps: dict[int, GroupElement] = {}
    for h in elements:
        reps.setdefault(min((h + k).rank() for k in annihilator), h)
    t = rng.choice(elements)
    return PointSet(spec, [x + t for x in H]), PointSet(spec, reps.values()), annihilator


def small_blocks(data):
    """The numpy blocks of ``spectral`` at their sizes, or small enough to split small inputs."""
    size = data.draw(st.sampled_from([None, 1, 100]))
    if size is None:
        return contextlib.nullcontext()
    return mock.patch.multiple(spectral, _BLOCK_ENTRIES=size, _HISTOGRAM_ENTRIES=size)


def table_blocks(data):
    """The count table's blocks at their size, or small enough to split small inputs."""
    size = data.draw(st.sampled_from([None, 1, 100]))
    if size is None:
        return contextlib.nullcontext()
    return mock.patch.object(tiling, "_BLOCK_ENTRIES", size)


def subsets(spec: GroupSpec, max_size: int):
    return st.sets(st.integers(0, spec.order - 1), min_size=1, max_size=max_size).map(
        lambda ranks: PointSet.from_ranks(spec, ranks)
    )


@SETTINGS
@given(st.data())
def test_verify_matches_the_all_pairs_reference(data):
    if not data.draw(st.booleans()):
        spec = data.draw(small_groups)
        S = data.draw(subsets(spec, 6))
        # Spectra drawn from {0} and the zero set pass many pairs before a
        # failure, so the walk reaches differences it has already tested.
        pool = [0] + naive_zero_set(S)
        if len(pool) < len(S) or data.draw(st.booleans()):
            pool = list(range(spec.order))
        size = len(S) if data.draw(st.integers(0, 9)) else min(len(pool), len(S) + 1)
        ranks = data.draw(
            st.lists(st.sampled_from(pool), min_size=size, max_size=size, unique=True)
        )
        spectrum = PointSet.from_ranks(spec, ranks)
    else:
        # Above the gate: a spectral pair, or one with a few spectrum points
        # moved. A point moved into the annihilator coset of another one
        # fails against it, so the walk meets failing pairs in several rows.
        S, spectrum, annihilator = subgroup_spectral_pair(data)
        spec = S.group
        points = list(spectrum.points)
        for _ in range(data.draw(st.integers(0, 4))):
            i, j = data.draw(st.integers(0, len(points) - 1)), data.draw(st.integers(0, len(points) - 1))
            moved = points[j] + data.draw(st.sampled_from(annihilator))
            if moved not in points:
                points[i] = moved
        spectrum = PointSet(spec, points)

    ok, pair, checked = naive_verify(S, spectrum)
    # Small numpy blocks make the walk cross block boundaries on small spectra.
    with small_blocks(data):
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
    with small_blocks(data):
        assert _zero_set_ranks(S) == naive_zero_set(S)


@SETTINGS
@given(st.data())
def test_zero_set_is_translation_invariant(data):
    # Z(1_{S+t}) = Z(1_S): translating S multiplies each character sum by a root of unity.
    spec = data.draw(zero_set_groups)
    S = data.draw(subsets(spec, 12))
    t = spec.element_at(data.draw(st.integers(0, spec.order - 1)))
    assert _zero_set_ranks(PointSet(spec, [p + t for p in S])) == _zero_set_ranks(S)


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


def first_uncovered(spec: GroupSpec, sums) -> GroupElement | None:
    """The lowest-rank element of spec missing from the group elements ``sums``."""
    counts = Counter(g.rank() for g in sums)
    return next((spec.element_at(r) for r in range(spec.order) if not counts[r]), None)


@SETTINGS
@given(st.data())
def test_coverage_table_counts_the_pair_sums(data):
    spec = data.draw(small_groups)
    A = data.draw(subsets(spec, 12))
    B = data.draw(subsets(spec, 12))
    counts = Counter((a + b).rank() for a in A for b in B)
    with table_blocks(data):
        assert sum_coverage(A, B) == [counts[r] for r in range(spec.order)]


@SETTINGS
@given(st.data())
def test_tiling_failure_names_the_first_uncovered_element(data):
    spec = data.draw(small_groups)
    n = spec.order
    size = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    rng = data.draw(st.randoms(use_true_random=False))
    A = PointSet.from_ranks(spec, rng.sample(range(n), size))
    B = PointSet.from_ranks(spec, rng.sample(range(n), n // size))
    g = first_uncovered(spec, (a + b for a in A for b in B))
    res = verify_tiling(A, B)
    if g is None:
        assert res.ok
    else:
        assert (res.ok, res.kind, res.element, res.count) == (False, "coverage", g, 0)


@SETTINGS
@given(st.data())
def test_multiset_failure_names_the_first_uncovered_element(data):
    spec = data.draw(small_groups)
    prod = product_group(spec, spec)
    rng = data.draw(st.randoms(use_true_random=False))
    P = PointSet.from_ranks(prod, rng.sample(range(prod.order), spec.order))
    d = len(spec.orders)
    g = first_uncovered(
        spec, (GroupElement(spec, p.coords[:d]) + GroupElement(spec, p.coords[d:]) for p in P)
    )
    with table_blocks(data):
        rep = sum_multiset_check(P)
    assert rep.ok == (g is None)
    assert rep.first_defect == (None if g is None else (g, 0))


harness_groups = st.sampled_from([
    GroupSpec(orders)
    for orders in ([1], [2], [4], [6], [8], [9], [2, 2], [2, 4], [3, 3], [2, 6])
])


def harness_candidates(spec: GroupSpec, rng, count: int) -> np.ndarray:
    """Ambient ranks of ``count`` candidates in G x G, every other one a planted transversal.

    The transversal {(g, sigma(g) - g)} of a permutation sigma has the sums
    sigma(G), each once, so it is spectral; a uniform candidate rarely is.
    """
    n = spec.order
    elements = list(spec.elements())
    rows = []
    for k in range(count):
        if k % 2:
            rows.append(sorted(rng.sample(range(n * n), n)))
        else:
            sigma = rng.sample(elements, n)
            rows.append(sorted(g.rank() * n + (s - g).rank() for g, s in zip(elements, sigma)))
    return np.array(rows, dtype=np.int64)


def product_splits(spec: GroupSpec, rng, count: int) -> list[tuple[PointSet, PointSet]]:
    """``count`` pairs (A, B) with |A| |B| = |G|, every other one a tiling.

    A subgroup H tiles with any transversal of its cosets, here the
    translates of one representative per coset by random elements of H.
    """
    n = spec.order
    elements = list(spec.elements())
    out = []
    for k in range(count):
        if k % 2:
            a = rng.choice([d for d in range(1, n + 1) if n % d == 0])
            A = PointSet(spec, rng.sample(elements, a))
            B = PointSet(spec, rng.sample(elements, n // a))
        else:
            # the cyclic subgroup of a random element, and a transversal
            g = rng.choice(elements)
            H = [spec.identity()]
            while (h := H[-1] + g) != H[0]:
                H.append(h)
            A = PointSet(spec, H)
            cosets, reps = set(), []
            for x in elements:
                key = min((x + h).rank() for h in H)
                if key not in cosets:
                    cosets.add(key)
                    reps.append(x + rng.choice(H))
            B = PointSet(spec, reps)
        out.append((A, B))
    return out


def assert_batched_verdicts(data, groups, max_rows: int, max_splits: int, patch: str, values):
    """``_candidate_verdicts`` against the per-row checks, patching ``diagonal.<patch>``."""
    spec = data.draw(groups)
    rng = data.draw(st.randoms(use_true_random=False))
    candidates = harness_candidates(spec, rng, data.draw(st.integers(1, max_rows)))
    splits = product_splits(spec, rng, data.draw(st.integers(0, max_splits)))
    n = spec.order
    products = [(A.rank_array[:, None] * n + B.rank_array).ravel() for A, B in splits]
    ranks = np.concatenate([candidates, np.array(products, dtype=np.int64).reshape(-1, n)])
    value = data.draw(st.sampled_from(values))
    with (
        contextlib.nullcontext() if value is None
        else mock.patch.object(diagonal, patch, value)
    ):
        # Both streams in one call, as the harness passes them.
        verdicts = _candidate_verdicts(spec, ranks[: len(candidates)], ranks[len(candidates) :])
    spectral_ok, multiset_ok = (np.concatenate(v) for v in zip(*verdicts))
    pair = diagonal_subgroup(spec)
    for row, s, m in zip(ranks, spectral_ok, multiset_ok):
        v = check_diagonal_spectral(PointSet.from_ranks(pair.ambient, row.tolist()), pair=pair)
        assert (s, m) == (v.spectral, v.multiset)
    # The table verdict of the row A x B is the tiling verdict of (A, B).
    for (A, B), m in zip(splits, multiset_ok[len(candidates):]):
        assert m == verify_tiling(A, B).ok


@SETTINGS
@given(st.data())
def test_batched_harness_verdicts_match_check_diagonal_spectral(data):
    # Small blocks make the candidates cross block boundaries.
    assert_batched_verdicts(data, harness_groups, 40, 10, "_HISTOGRAM_ENTRIES", [None, 1, 100])


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_chunked_pair_tables_match_check_diagonal_spectral(data):
    # In 2^6 the pair table's 63 classes x 4,096 entries span eight chunks of
    # 2^15 entries; with _BLOCK_ENTRIES at 1, every group takes one class per chunk.
    groups = st.sampled_from([GroupSpec([6]), GroupSpec([8]), GroupSpec([2] * 6)])
    assert_batched_verdicts(data, groups, 6, 4, "_BLOCK_ENTRIES", [None, 1])


@SETTINGS
@given(st.data())
def test_factorised_product_route_matches_the_pair_check(data):
    # (A x B, D) is spectral iff Z(1_A) and Z(1_B) cover G \ {0}; here the
    # pair check of A x B against the diagonal, every difference (h, h).
    spec = data.draw(harness_groups)
    rng = data.draw(st.randoms(use_true_random=False))
    pair = diagonal_subgroup(spec)
    # Small groups read a cached table; without it, the blocked zero test runs.
    blocks = data.draw(st.sampled_from([None, 0]))
    with (
        contextlib.nullcontext() if blocks is None
        else mock.patch.object(diagonal, "_BLOCK_ENTRIES", blocks)
    ):
        for A, B in product_splits(spec, rng, 4):
            P = product_point_set(A, B, pair.ambient)
            expected = verify_spectral_pair(P, pair.diagonal).ok
            assert diagonal._product_spectral(A, B) == expected
            assert diagonal.product_with_diagonal(A, B).spectral_ok == expected


# Ranks of 7^22 and of the single factor MAX_ORDER come near the int64 limit.
pointset_groups = st.one_of(
    small_groups,
    st.sampled_from([GroupSpec([7] * 22), GroupSpec([MAX_ORDER]), GroupSpec([3, 2**60, 2])]),
)


def lex_rank(spec: GroupSpec, coords: tuple[int, ...]) -> int:
    r = 0
    for c, n in zip(coords, spec.orders):
        r = r * n + c
    return r


@SETTINGS
@given(st.data())
def test_point_set_constructors_agree(data):
    spec = data.draw(pointset_groups)
    coord = st.tuples(*(st.integers(0, n - 1) for n in spec.orders))
    coords = data.draw(st.lists(coord, min_size=0, max_size=12))
    rng = data.draw(st.randoms(use_true_random=False))
    expected = sorted(set(coords))

    shuffled = coords + rng.sample(coords, len(coords) // 2)  # with duplicates
    rng.shuffle(shuffled)
    multiples = st.integers(-3, 3)
    unreduced = [tuple(c + data.draw(multiples) * n for c, n in zip(p, spec.orders)) for p in shuffled]
    ranks = [lex_rank(spec, p) for p in shuffled]
    built = [
        PointSet(spec, [GroupElement(spec, p) for p in shuffled]),
        PointSet.from_coords(spec, unreduced),
        PointSet.from_ranks(spec, ranks),
    ]
    t = GroupElement(spec, data.draw(coord))
    built.append(PointSet(spec, [GroupElement(spec, p) - t for p in coords]).translate(t))

    outside = data.draw(coord)
    for ps in built:
        assert ps.ranks() == tuple(lex_rank(spec, p) for p in expected)
        assert [p.coords for p in ps] == [p.coords for p in ps.points] == expected
        assert ps == built[0] and hash(ps) == hash(built[0])
        assert all(GroupElement(spec, p) in ps for p in coords)
        assert (GroupElement(spec, outside) in ps) == (outside in expected)
        assert point_set_from_file(serialize_point_set(ps)) == ps
    assert built[0] != PointSet(spec, [GroupElement(spec, outside)]) or expected == [outside]

    other = data.draw(small_groups)
    if spec.order * other.order <= MAX_ORDER:
        B = data.draw(subsets(other, 6))
        prod = product_group(spec, other)
        P = product_point_set(built[0], B)
        assert P == PointSet(prod, [GroupElement(prod, a.coords + b.coords) for a in built[0] for b in B])
        assert [p.coords for p in P] == sorted(a + b.coords for a in expected for b in B)
