"""The bitset search kernels walk the same trees as the searches they replaced.

``reference_search`` keeps the earlier recursive clique search and exact
cover. On random graphs and random sets, in default and canonical mode and
under small budgets, the kernels must agree with them on the outcome, the
witness and the node count. The numpy-built orthogonality graph must equal
the pair-by-pair loop over group elements.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_search as ref
from spectile.groups import GroupSpec, PointSet
from spectile.spectral import _clique_search, _orthogonality_rows, find_spectrum
from spectile.tiling import find_complement

SETTINGS = settings(max_examples=200, deadline=None)

budgets = st.one_of(st.integers(1, 80), st.just(10**6))
graph_groups = st.one_of(
    st.integers(2, 64).map(lambda n: GroupSpec([n])),
    st.integers(1, 12).map(lambda k: GroupSpec([2] * k)),
    st.sampled_from([
        GroupSpec([4, 6]), GroupSpec([2, 12]), GroupSpec([3, 9]),
        GroupSpec([4096]), GroupSpec([64, 64]), GroupSpec([3, 1365]),
    ]),
)
search_groups = st.one_of(
    st.integers(2, 48).map(lambda n: GroupSpec([n])),
    st.integers(1, 6).map(lambda k: GroupSpec([2] * k)),
    st.sampled_from([
        GroupSpec([4, 6]), GroupSpec([2, 12]), GroupSpec([3, 9]),
        GroupSpec([2, 4, 8]), GroupSpec([4, 4]), GroupSpec([2, 2, 6]),
    ]),
)
tiling_groups = st.one_of(
    st.integers(2, 24).map(lambda n: GroupSpec([n])),
    st.integers(1, 4).map(lambda k: GroupSpec([2] * k)),
    st.sampled_from([GroupSpec([4, 6]), GroupSpec([2, 12]), GroupSpec([2, 4]),
                     GroupSpec([4, 4]), GroupSpec([3, 6])]),
)


def random_graph(n: int, density: float, hub: bool, seed: int) -> list[int]:
    """G(n, density); with ``hub``, vertex 0 is joined to every other vertex."""
    rng = random.Random(seed)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if (hub and i == 0) or rng.random() < density:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def clique_number_at_zero(adj: list[int]) -> int:
    """Size of the largest clique through vertex 0, by the reference search."""
    size = 1
    while ref.clique_search(adj, len(adj), size + 1, 10**6, False)[0] == "found":
        size += 1
    return size


def relabel(adj: list[int], order: list[int]) -> list[int]:
    """Rows of the graph with vertex order[p] renamed p."""
    pos = {v: p for p, v in enumerate(order)}
    return [sum(1 << pos[w] for w in range(len(adj)) if adj[v] >> w & 1) for v in order]


@SETTINGS
@given(
    n=st.integers(1, 64),
    density=st.sampled_from([0.4, 0.55, 0.7, 0.85]),
    hub=st.booleans(),
    seed=st.integers(0, 2**32),
    excess=st.integers(-1, 1),
    budget=st.one_of(st.integers(1, 300), st.just(10**6)),
    canonical=st.booleans(),
)
def test_clique_search_matches_the_reference(n, density, hub, seed, excess, budget, canonical):
    # Targets next to the largest clique through 0 give the deepest trees:
    # found just below it, exhausted just above it.
    adj = random_graph(n, density, hub, seed)
    target = max(1, clique_number_at_zero(adj) + excess)
    expected = ref.clique_search(adj, n, target, budget, canonical)
    if canonical:
        order = list(range(n))
    else:
        order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    status, clique, nodes = _clique_search(
        relabel(adj, order), order.index(0), target, budget, canonical
    )
    witness = None if clique is None else [order[p] for p in clique]
    assert (status, witness, nodes) == expected


def subsets(spec: GroupSpec, min_size: int, max_size: int):
    return st.sets(
        st.integers(0, spec.order - 1), min_size=min_size, max_size=max_size
    ).map(lambda ranks: PointSet.from_ranks(spec, ranks))


@SETTINGS
@given(st.data())
def test_find_spectrum_matches_the_reference(data):
    spec = data.draw(search_groups)
    S = data.draw(subsets(spec, 1, min(10, spec.order)))
    budget = data.draw(budgets)
    canonical = data.draw(st.booleans())
    res = find_spectrum(S, budget=budget, canonical=canonical)
    witness = None if res.certificate is None else res.certificate.spectrum.ranks()
    assert (res.status, witness, res.nodes) == ref.spectrum_search(S, budget, canonical)


@SETTINGS
@given(st.data())
def test_find_complement_matches_the_reference(data):
    spec = data.draw(tiling_groups)
    sizes = [d for d in range(1, spec.order + 1) if spec.order % d == 0]
    size = data.draw(st.sampled_from(sizes))
    A = data.draw(subsets(spec, size, size))
    budget = data.draw(st.one_of(st.integers(1, 80), st.just(20_000)))
    canonical = data.draw(st.booleans())
    res = find_complement(A, budget=budget, canonical=canonical)
    witness = None if res.certificate is None else res.certificate.complement.ranks()
    assert (res.status, witness, res.nodes) == ref.complement_search(A, budget, canonical)


@SETTINGS
@given(st.data())
def test_orthogonality_rows_match_the_pairwise_loop(data):
    spec = data.draw(graph_groups)
    vertices = data.draw(st.lists(
        st.integers(0, spec.order - 1), min_size=1, max_size=min(40, spec.order), unique=True,
    ))
    zero_ranks = data.draw(st.sets(st.integers(0, spec.order - 1)))
    zero = np.zeros(spec.order, dtype=bool)
    zero[list(zero_ranks)] = True
    elems = [spec.element_at(r) for r in vertices]
    expected = [
        sum(1 << j for j, ej in enumerate(elems) if (ej - ei).rank() in zero_ranks)
        for ei in elems
    ]
    assert _orthogonality_rows(spec, np.array(vertices, dtype=np.int64), zero) == expected
