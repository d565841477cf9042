"""What building the orthogonality graph for ``find_spectrum`` costs.

The graph is built in one pass over the difference ranks, and relabelled
into the kernel's static order from its packed rows, so that the transient
memory stays near the packed graph rather than a dense vertex-by-vertex
matrix.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from spectile import spectral
from spectile.groups import GroupSpec, PointSet


def zero_and_first_unit_vector(k: int) -> PointSet:
    """{0, e_1} in 2^k: its zero set is the 2^(k-1) elements with h_1 = 1."""
    spec = GroupSpec([2] * k)
    return PointSet(spec, [spec.element([0] * k), spec.element([1] + [0] * (k - 1))])


@pytest.mark.parametrize("canonical", [False, True])
def test_difference_ranks_are_computed_once_per_search(monkeypatch, canonical):
    # A default search that built the graph once for the degrees and again
    # in descending-degree order would draw every block twice.
    S = zero_and_first_unit_vector(10)
    drawn = []  # (first row, rows) of each block
    blocks = spectral._difference_blocks

    def counting_blocks(spec, ranks, dtype):
        for i, diff in blocks(spec, ranks, dtype):
            drawn.append((i, len(diff)))
            yield i, diff

    monkeypatch.setattr(spectral, "_difference_blocks", counting_blocks)
    res = spectral.find_spectrum(S, budget=100, canonical=canonical)
    assert (res.status, res.nodes) == ("found", 2)
    assert len(drawn) > 1  # several row blocks
    assert [i for i, _ in drawn] == sorted({i for i, _ in drawn})
    assert sum(rows for _, rows in drawn) == 2**9 + 1  # every vertex's row, once


@pytest.mark.parametrize("orders, vertices", [
    ([12], 12), ([2, 6], 7), ([64], 40), ([2] * 9, 300), ([16, 32], 500),
])
def test_kernel_rows_match_a_build_in_the_new_order(orders, vertices):
    # Relabelling the packed graph must give the rows that building the graph
    # again on the permuted vertices gives, with each row's bits reversed.
    # 300 and 500 vertices take several blocks of the relabel.
    spec = GroupSpec(orders)
    rng = random.Random(vertices)
    ranks = np.array(rng.sample(range(spec.order), vertices), dtype=np.int64)
    zero = np.array([rng.random() < 0.4 for _ in range(spec.order)])
    order = np.array(rng.sample(range(vertices), vertices))
    packed, degree = spectral._packed_graph(spec, ranks, zero)
    natural = spectral._orthogonality_rows(spec, ranks[order], zero)
    expected = [int(format(row, f"0{vertices}b")[::-1], 2) for row in natural]
    assert spectral._kernel_rows(packed, order) == expected
    assert degree[order].tolist() == [row.bit_count() for row in natural]


def test_graph_build_memory_stays_packed():
    # V = 2,049 vertices. The search peaks near 2.4 MB: the packed graph is
    # 0.5 MB, the kernel's rows and tables about 1.8 MB. A dense V x V bool
    # matrix alone would be 4.2 MB.
    S = zero_and_first_unit_vector(12)
    spectral.find_spectrum(S, budget=100)  # fills the process-lifetime caches
    tracemalloc.start()
    try:
        res = spectral.find_spectrum(S, budget=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.status, res.nodes) == ("found", 2)
    assert peak < 4_000_000
