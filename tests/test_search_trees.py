"""The search kernels' cheaper nodes walk the same trees as the reference searches.

The clique kernel stops colouring a node once c classes and R uncoloured
candidates leave c + |R| short of the vertices it still needs. That exit
fires most on targets above the largest clique through vertex 0, where the
whole tree is walked and nearly every node is pruned by its colouring: the
regime of ``find-spectrum`` on a set without a spectrum. The exact cover
keeps each element's count of free rows up to date and puts it back on
backtracking; these groups give exhausted outcomes and found ones after
dead ends. Outcome, witness and node count must equal those of
``reference_search``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_search as ref
from spectile.groups import GroupSpec, PointSet
from spectile.spectral import _clique_search
from spectile.tiling import find_complement
from test_search_kernels import clique_number_at_zero, random_graph, relabel

SETTINGS = settings(max_examples=150, deadline=None)


@SETTINGS
@given(
    n=st.sampled_from([24, 40, 56, 72, 90]),
    density=st.sampled_from([0.34, 0.5, 0.7]),
    hub=st.booleans(),
    seed=st.integers(0, 2**32),
    excess=st.integers(2, 8),
    budget=st.one_of(st.integers(1, 2000), st.just(10**6)),
    canonical=st.booleans(),
)
def test_clique_search_above_the_clique_number(n, density, hub, seed, excess, budget, canonical):
    # With ``hub`` every vertex is a candidate at the root, as in the
    # orthogonality graph through 0, and the trees run to thousands of nodes.
    adj = random_graph(n, density, hub, seed)
    target = clique_number_at_zero(adj) + excess
    expected = ref.clique_search(adj, n, target, budget, canonical)
    if canonical:
        order = list(range(n))
    else:
        order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    status, clique, nodes = _clique_search(
        relabel(adj, order), order.index(0), target, budget, canonical
    )
    assert clique is None
    assert (status, None, nodes) == expected


cover_groups = st.sampled_from([
    GroupSpec([2] * 5), GroupSpec([2] * 6), GroupSpec([2, 2, 8]),
    GroupSpec([2, 4, 8]), GroupSpec([8, 8]),
])


@SETTINGS
@given(st.data())
def test_find_complement_matches_the_reference_after_backtracking(data):
    spec = data.draw(cover_groups)
    size = data.draw(st.sampled_from([2, 4, 8, 16]))
    ranks = data.draw(st.sets(st.integers(0, spec.order - 1), min_size=size, max_size=size))
    A = PointSet.from_ranks(spec, ranks)
    budget = data.draw(st.one_of(st.integers(1, 40), st.just(20_000)))
    canonical = data.draw(st.booleans())
    res = find_complement(A, budget=budget, canonical=canonical)
    witness = None if res.certificate is None else res.certificate.complement.ranks()
    assert (res.status, witness, res.nodes) == ref.complement_search(A, budget, canonical)
