from __future__ import annotations

import multiprocessing
import os
import random
from itertools import combinations

import numpy as np
import pytest

from conftest import (
    char_sum_of_pair_sums,
    iter_product_splits,
    meets_each_antidiagonal_coset_once,
)
from spectile import diagonal, tiling
from spectile.cli import main
from spectile.diagonal import (
    _candidate_verdicts,
    check_diagonal_spectral,
    count_product_splits,
    diagonal_subgroup,
    product_with_diagonal,
    run_agreement_harness,
    sum_multiset_check,
)
from spectile.groups import (
    BudgetExceededError,
    GroupSpec,
    PointSet,
    format_point_set,
    product_group,
)
from spectile.spectral import char_sum_on_set
from spectile.tiling import verify_tiling


def test_diagonal_of_z2():
    dp = diagonal_subgroup(GroupSpec([2]))
    assert [p.coords for p in dp.diagonal] == [(0, 0), (1, 1)]


def test_antidiagonal_of_z3():
    dp = diagonal_subgroup(GroupSpec([3]))
    assert [p.coords for p in dp.antidiagonal] == [(0, 0), (1, 2), (2, 1)]


@pytest.mark.parametrize("orders", [[1], [4], [2, 3], [3, 3]])
def test_diagonal_sizes(orders):
    dp = diagonal_subgroup(GroupSpec(orders))
    assert len(dp.diagonal) == dp.base.order
    assert len(dp.antidiagonal) == dp.base.order


def _graph_set(base: GroupSpec, fn) -> PointSet:
    prod = product_group(base, base)
    return PointSet(
        prod, [prod.element(g.coords + fn(g).coords) for g in base.elements()]
    )


def test_multiset_check_on_projection_graph():
    # P = {(g, 0)}: the sums sweep the group once
    g = GroupSpec([3, 2])
    P = _graph_set(g, lambda e: g.identity())
    assert sum_multiset_check(P).ok


def test_multiset_check_diagonal_itself_even_order():
    g = GroupSpec([4])
    dp = diagonal_subgroup(g)
    rep = sum_multiset_check(dp.diagonal)
    assert not rep.ok
    assert rep.multiplicities == (2, 0, 2, 0)


def test_multiset_check_diagonal_itself_odd_order():
    g = GroupSpec([3])
    dp = diagonal_subgroup(g)
    assert sum_multiset_check(dp.diagonal).ok


def test_multiset_check_requires_full_cardinality():
    g = GroupSpec([3])
    prod = product_group(g, g)
    P = PointSet.from_coords(prod, [[0, 0], [1, 1]])
    with pytest.raises(ValueError, match=r"\|P\|"):
        sum_multiset_check(P)


def test_diagonal_check_on_projection_graph():
    g = GroupSpec([4])
    P = _graph_set(g, lambda e: g.identity())
    v = check_diagonal_spectral(P)
    assert v.spectral is True and v.multiset is True and v.agree is True


def test_diagonal_check_on_diagonal_itself():
    g = GroupSpec([4])
    dp = diagonal_subgroup(g)
    v = check_diagonal_spectral(dp.diagonal, pair=dp)
    assert v.spectral is False and v.multiset is False and v.agree is True


def test_diagonal_check_exhaustive_z2():
    g = GroupSpec([2])
    prod = product_group(g, g)
    count = 0
    for ranks in combinations(range(4), 2):
        P = PointSet.from_ranks(prod, ranks)
        v = check_diagonal_spectral(P)
        assert v.agree is True
        count += 1
    assert count == 6


def test_diagonal_check_shortcut_flag():
    g = GroupSpec([4])
    P = _graph_set(g, lambda e: g.identity())
    v = check_diagonal_spectral(P, pair_budget=1)
    assert v.shortcut and v.spectral is None and v.agree is None
    assert v.multiset is True


def test_product_with_diagonal_tiling_pair():
    z4 = GroupSpec([4])
    A = PointSet.from_coords(z4, [[0], [1]])
    B = PointSet.from_coords(z4, [[0], [2]])
    res = product_with_diagonal(A, B)
    assert res.tiling_ok and res.spectral_ok and res.agree


def test_product_with_diagonal_non_tiling_pair():
    z4 = GroupSpec([4])
    A = PointSet.from_coords(z4, [[0], [2]])
    res = product_with_diagonal(A, A)
    assert not res.tiling_ok and not res.spectral_ok and res.agree


def test_product_with_diagonal_whole_group():
    g = GroupSpec([2, 3])
    G = PointSet(g, list(g.elements()))
    Z = PointSet.from_coords(g, [[0, 0]])
    res = product_with_diagonal(G, Z)
    assert res.tiling_ok and res.spectral_ok and res.agree


def test_product_with_diagonal_rejects_wrong_cardinalities():
    z4 = GroupSpec([4])
    A = PointSet.from_coords(z4, [[0], [1]])
    B = PointSet.from_coords(z4, [[0]])
    with pytest.raises(ValueError):
        product_with_diagonal(A, B)


def test_antidiagonal_transversal_on_projection_graph():
    g = GroupSpec([4])
    P = _graph_set(g, lambda e: g.identity())
    assert meets_each_antidiagonal_coset_once(P, g)
    assert sum_multiset_check(P).ok


def test_antidiagonal_transversal_key_collision():
    g = GroupSpec([4])
    prod = product_group(g, g)
    # (0,0) and (1,3) lie in one antidiagonal coset (both sum to 0); pad to |P|=4
    P = PointSet.from_coords(prod, [[0, 0], [1, 3], [0, 1], [0, 2]])
    assert not meets_each_antidiagonal_coset_once(P, g)
    rep = sum_multiset_check(P)
    assert not rep.ok
    assert rep.first_defect == (g.element([3]), 0)


@pytest.mark.parametrize("orders", [[1], [2], [3]])
def test_antidiagonal_agrees_with_multiset_exhaustive(orders):
    g = GroupSpec(orders)
    prod = product_group(g, g)
    for ranks in combinations(range(prod.order), g.order):
        P = PointSet.from_ranks(prod, ranks)
        assert meets_each_antidiagonal_coset_once(P, g) == sum_multiset_check(P).ok


def test_pair_sum_charsum_identity_random():
    # chi_(g,g) summed over P in GxG == chi_g over the folded sums in G
    rng = random.Random(11)
    for orders in ([5], [2, 3], [4, 2], [8]):
        g = GroupSpec(orders)
        prod = product_group(g, g)
        prod_els = list(prod.elements())
        for _ in range(40):
            P = PointSet(prod, rng.sample(prod_els, rng.randint(1, 12)))
            for ge in g.elements():
                ambient_route = char_sum_on_set(P, prod.element(ge.coords + ge.coords))
                base_route = char_sum_of_pair_sums(P, ge, base=g)
                assert ambient_route == base_route


def test_harness_exhaustive_z2():
    rep = run_agreement_harness(GroupSpec([2]))
    assert rep.mode == "exhaustive"
    assert rep.checked == 6
    assert rep.splits == count_product_splits(GroupSpec([2])) == 4
    assert rep.disagreements == 0
    assert rep.render().splitlines()[-1] == "checked=6 disagreements=0"


def test_harness_sampled_is_deterministic():
    g = GroupSpec([2, 2])
    a = run_agreement_harness(g, budget=200, seed=3)
    b = run_agreement_harness(g, budget=200, seed=3)
    assert a.render() == b.render()
    assert a.mode == "sampled" and a.checked == 200


def test_harness_threads_match_serial():
    g = GroupSpec([3])
    serial = run_agreement_harness(g, budget=150, seed=1, threads=1)
    parallel = run_agreement_harness(g, budget=150, seed=1, threads=2)
    assert serial.render() == parallel.render()


@pytest.fixture
def recorded_pools(monkeypatch):
    """Replace multiprocessing.Pool; record each ``processes``, map in-process."""
    created: list[int] = []

    class RecordingPool:
        def __init__(self, processes):
            created.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, items):
            return [fn(*x) for x in items]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    return created


@pytest.mark.parametrize(
    "n, cpus, threads, pools",
    [
        # Z_3: 84 candidates in 4 chunks, 6 splits in 3 chunks of 2
        (3, 4, 10**9, [4, 3]),
        # Z_2: 6 candidates and 4 splits, one per chunk, below the CPU count
        (2, 64, 10**6, [6, 4]),
    ],
)
def test_harness_threads_clamped_to_cpus_and_chunks(
    recorded_pools, monkeypatch, n, cpus, threads, pools
):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    g = GroupSpec([n])
    serial = run_agreement_harness(g, seed=1)
    assert recorded_pools == []
    clamped = run_agreement_harness(g, seed=1, threads=threads)
    assert recorded_pools == pools
    assert clamped == serial


@pytest.mark.parametrize("threads", [0, -1])
def test_harness_rejects_threads_below_one(recorded_pools, threads):
    with pytest.raises(ValueError, match="threads"):
        run_agreement_harness(GroupSpec([2]), threads=threads)
    assert recorded_pools == []


def test_harness_budget_zero_and_negative():
    with pytest.raises(BudgetExceededError, match="no candidate and no split"):
        run_agreement_harness(GroupSpec([6]), budget=0)
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        run_agreement_harness(GroupSpec([6]), budget=-1)


def test_split_stream_reads_two_routes(monkeypatch):
    # A count table that loses one count of its last nonzero cell fails every
    # table route of the harness. The split stream reads its tiling verdict
    # from the table and its product-spectral verdict from the characters,
    # so the last split of the sweep, a tiling, now disagrees.
    real = tiling._count_table

    def dropped(spec, x, y):
        table = real(spec, x, y)
        table[np.flatnonzero(table)[-1]] -= 1
        return table

    monkeypatch.setattr(tiling, "_count_table", dropped)
    monkeypatch.setattr(diagonal, "_count_table", dropped)
    rep = run_agreement_harness(GroupSpec([4]))
    assert "disagree kind=split A={0,1,2,3} B={3} tiling=False product-spectral=True" in rep.lines


def flip_one_verdict(monkeypatch, route: str, index: int) -> None:
    """Make the batched route ``route`` flip its verdict on row ``index`` of its first block."""
    real = getattr(diagonal, route)
    first = [True]

    def flipped(*args):
        verdicts = real(*args)
        if first:
            first.pop()
            verdicts[index] = not verdicts[index]
        return verdicts

    monkeypatch.setattr(diagonal, route, flipped)


@pytest.mark.parametrize("route", ["_multiset_verdicts", "_character_verdicts"])
def test_flipped_batched_route_names_the_candidate(monkeypatch, capsys, route):
    flip_one_verdict(monkeypatch, route, 5)
    code = main(["harness", "--group", "4"])
    captured = capsys.readouterr()
    pair = diagonal_subgroup(GroupSpec([4]))
    P = PointSet.from_ranks(pair.ambient, list(combinations(range(16), 4))[5])
    v = check_diagonal_spectral(P, pair=pair)
    spectral, multiset = v.spectral, v.multiset
    if route == "_multiset_verdicts":
        multiset = not multiset
    else:
        spectral = not spectral
    assert code == 4
    assert [line for line in captured.out.splitlines() if "kind=candidate" in line] == [
        f"disagree kind=candidate P={format_point_set(P)} spectral={spectral} multiset={multiset}"
    ]
    assert captured.err.startswith("disagreement: ")


@pytest.mark.parametrize("route", ["_multiset_verdicts", "_character_verdicts"])
@pytest.mark.parametrize("pair_budget, lines", [(23, 0), (24, 1)])
def test_flipped_route_is_not_checked_above_the_pair_budget(monkeypatch, route, pair_budget, lines):
    # In Z_4 the pairwise route costs 6 pairs times 4 points.
    flip_one_verdict(monkeypatch, route, 5)
    rep = run_agreement_harness(GroupSpec([4]), pair_budget=pair_budget)
    assert rep.checked == 1820
    assert sum("kind=candidate" in line for line in rep.lines) == lines


def test_batched_routes_read_separate_tables(monkeypatch):
    # Zeroing one route's table fails every candidate on that route alone.
    base = GroupSpec([4])
    ranks = np.array(list(combinations(range(16), 4)))
    spectral, multiset = _candidate_verdicts(base, ranks)
    assert spectral.any() and not spectral.all()

    table = diagonal._count_table
    monkeypatch.setattr(diagonal, "_count_table", lambda spec, x, y: np.zeros_like(table(spec, x, y)))
    now_spectral, now_multiset = _candidate_verdicts(base, ranks)
    assert (now_spectral == spectral).all() and not now_multiset.any()
    monkeypatch.undo()

    chi = diagonal._pairing_exponents
    monkeypatch.setattr(diagonal, "_pairing_exponents", lambda spec: np.zeros_like(chi(spec)))
    now_spectral, now_multiset = _candidate_verdicts(base, ranks)
    assert not now_spectral.any() and (now_multiset == multiset).all()


def test_iter_product_splits_counts():
    g = GroupSpec([4])
    assert count_product_splits(g) == 44
    assert sum(1 for _ in iter_product_splits(g)) == 44


def test_split_agreement_small_groups():
    for orders in ([1], [2], [3], [4], [2, 2], [5], [6]):
        g = GroupSpec(orders)
        for A, B in iter_product_splits(g):
            res = product_with_diagonal(A, B)
            assert res.agree
            assert res.tiling_ok == verify_tiling(A, B).ok
