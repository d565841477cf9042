from __future__ import annotations

import math
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from conftest import (
    char_sum_of_pair_sums,
    count_product_splits,
    iter_product_splits,
    meets_each_antidiagonal_coset_once,
)
from spectile import diagonal
from spectile.cli import main
from spectile.diagonal import (
    _candidate_verdicts,
    check_diagonal_spectral,
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
    parse_group_spec,
    product_group,
    product_point_set,
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


def test_harness_budget_zero_and_negative():
    with pytest.raises(BudgetExceededError, match="no candidate and no split"):
        run_agreement_harness(GroupSpec([6]), budget=0)
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        run_agreement_harness(GroupSpec([6]), budget=-1)


def test_split_stream_reads_two_routes(monkeypatch):
    # Counts (x-major) that lose their last nonzero cell fail, in each block
    # of the harness's table route, the last row holding the largest x held.
    # The last split of the sweep is a tiling, so it holds every x and fails.
    # The split stream reads its tiling verdict from the counts and its
    # product-spectral verdict from the characters, so that split disagrees.
    real = diagonal._row_counts

    def dropped(cells, n):
        table = real(cells, n)
        table.flat[np.flatnonzero(table)[-1]] -= 1
        return table

    monkeypatch.setattr(diagonal, "_row_counts", dropped)
    rep = run_agreement_harness(GroupSpec([4]))
    assert "disagree kind=split A={0,1,2,3} B={3} tiling=False product-spectral=True" in rep.lines


def flip_one_verdict(monkeypatch, route: str, index: int) -> None:
    """Make the batched route ``route`` flip its verdict on row ``index`` of its first stream."""
    real = getattr(diagonal, route)

    def flipped(*args):
        verdicts = real(*args)
        verdicts[0][index] = not verdicts[0][index]
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


def test_batched_routes_read_separate_tables(monkeypatch):
    # Zeroing one route's table fails every candidate on that route alone.
    base = GroupSpec([4])
    ranks = np.array(list(combinations(range(16), 4)))
    [(spectral, multiset)] = _candidate_verdicts(base, ranks)
    assert spectral.any() and not spectral.all()

    counts = diagonal._row_counts
    monkeypatch.setattr(diagonal, "_row_counts", lambda cells, n: np.zeros_like(counts(cells, n)))
    [(now_spectral, now_multiset)] = _candidate_verdicts(base, ranks)
    assert (now_spectral == spectral).all() and not now_multiset.any()
    monkeypatch.undo()

    chi = diagonal._pairing_exponents
    monkeypatch.setattr(diagonal, "_pairing_exponents", lambda spec: np.zeros_like(chi(spec)))
    [(now_spectral, now_multiset)] = _candidate_verdicts(base, ranks)
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


@pytest.mark.parametrize("orders", [[3], [2, 3], [2, 4]])
def test_exhaustive_split_rows_are_every_product_in_order(monkeypatch, orders):
    # The budget samples the candidates but covers every split, so the second
    # stream checked is the exhaustive split stream.
    batches = []
    real = diagonal._candidate_verdicts
    monkeypatch.setattr(diagonal, "_candidate_verdicts",
                        lambda base, *rows: batches.extend(rows) or real(base, *rows))
    g = GroupSpec(orders)
    rep = run_agreement_harness(g, budget=count_product_splits(g), seed=0)
    assert rep.split_mode == "exhaustive" and len(batches) == 2
    expected = [product_point_set(A, B).rank_array for A, B in iter_product_splits(g)]
    assert batches[1].dtype == np.min_scalar_type(g.order**2 - 1)
    assert np.array_equal(batches[1], expected)


@pytest.mark.parametrize("route", ["_multiset_verdicts", "_character_verdicts"])
def test_flipped_route_is_reported_at_order_512(monkeypatch, route):
    # From |G| = 272 on, the pairwise route of diagonal-check is over its
    # budget; the harness still draws and checks both streams there.
    flip_one_verdict(monkeypatch, route, 5)
    rep = run_agreement_harness(GroupSpec([512]), budget=20, seed=1)
    assert (rep.checked, rep.splits, rep.disagreements) == (20, 20, 1)
    assert rep.lines[0].startswith("disagree kind=candidate P=")


class Drawn(Exception):
    """Raised by a patched draw: the harness got past its caps."""


def refuse_draws(monkeypatch) -> None:
    def refuse(*args):
        raise Drawn

    for name in ("_all_subsets", "_sorted_subsets", "_sampled_splits"):
        monkeypatch.setattr(diagonal, name, refuse)


def abelian_groups(n: int) -> list[list[int]]:
    """The cyclic factors of every abelian group of order n, by prime power partitions."""
    def partitions(k: int, top: int) -> list[list[int]]:
        return [[]] if k == 0 else [
            [i] + rest for i in range(min(k, top), 0, -1) for rest in partitions(k - i, i)
        ]

    out, m, p = [[]], n, 2
    while m > 1:
        k = 0
        while m % p == 0:
            m, k = m // p, k + 1
        if k:
            out = [o + [p**e for e in part] for o in out for part in partitions(k, k)]
        p += 1
    return [o or [1] for o in out]


def test_harness_caps_admit_every_group_below_order_272_at_the_default_budget(monkeypatch):
    # Below order 272 the pairwise gate let every default-budget run through;
    # the caps still do. 2^8 takes the most steps, 2 x 3^3 x 5 the most bytes.
    refuse_draws(monkeypatch)
    groups = [orders for n in range(1, 272) for orders in abelian_groups(n)]
    assert len(groups) == 538
    for orders in groups:
        with pytest.raises(Drawn):
            run_agreement_harness(GroupSpec(orders))


@pytest.mark.parametrize(
    "group, budget, steps, held",
    [
        # 2 x 102,000 rows x 256 points x (1 + 255 classes), the draws'
        # 2 x 102,000 x 256^2 / 2 and the tables' 256 x 256^2: over on steps.
        ("2^8", 102_000, 20070793216, 104448000),
        ("2^9", 100_000, 78777417728, 409600000),
        # Z_8 at 4 x 10^7 sampled candidates and its 3,936 splits: under on
        # steps, over on 320 MB of one-byte ranks.
        ("8", 4 * 10**7, 2560126208, 320031488),
    ],
)
def test_harness_over_its_caps_exits_3_and_draws_nothing(monkeypatch, capsys, group, budget,
                                                         steps, held):
    refuse_draws(monkeypatch)
    message = (f"harness: {steps} steps and {held} bytes of ranks, "
               f"caps {diagonal.MAX_HARNESS_STEPS} and {diagonal.MAX_HARNESS_BYTES}")
    with pytest.raises(BudgetExceededError, match=f"^{message}$"):
        run_agreement_harness(parse_group_spec(group), budget=budget)
    assert main(["harness", "--group", group, "--budget", str(budget)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_harness_pair_table_is_built_in_chunks():
    # 2^8 has 255 Galois classes: a whole pair table would hold 255 x 65,536
    # entries, 16.7 MB at one byte each. One chunk holds one class.
    spec = parse_group_spec("2^8")
    run_agreement_harness(spec, budget=200, seed=1)  # fills the process-lifetime caches
    tracemalloc.start()
    try:
        rep = run_agreement_harness(spec, budget=200, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.checked, rep.splits, rep.disagreements) == (200, 200, 0)
    assert peak < 3_000_000


@pytest.mark.parametrize("bound", [1, 2, 3, 2**8, 2**8 + 1, 2**16, 2**16 + 1, 2**31 + 1, 2**32,
                                   2**32 + 1, 2**40 + 3, 2**64])
def test_random_below_covers_its_range_and_no_more(bound):
    values = diagonal._random_below(random.Random(5), bound, 4000)
    assert len(values) == 4000
    # drawn from the narrowest 8-, 16-, 32- or 64-bit word that holds bound - 1
    assert values.dtype == np.min_scalar_type(bound - 1)
    assert (values <= bound - 1).all()
    # the top bits are drawn: values reach the upper half of the range
    assert values.max() >= bound // 2


@pytest.mark.parametrize(
    "rows, k, m",
    [
        (500, 1, 10),  # one element per row
        (300, 7, 7),  # the whole range
        (2 * 1365 + 7, 6, 36),  # part of one block, or many blocks of 1 row with entries=10
        (2 * 21845 + 7, 6, 36),  # two full blocks of 21845 rows and a part
        (1000, 5, 2**40 + 3),  # bounds above 2^32
        (200, 3, 2**64),
    ],
)
@pytest.mark.parametrize("entries", [None, 10])
def test_sorted_subsets_are_increasing_and_in_range(monkeypatch, rows, k, m, entries):
    if entries is not None:
        monkeypatch.setattr(diagonal, "_DRAW_ENTRIES", entries)
    out = diagonal._sorted_subsets(random.Random(3), rows, k, m)
    assert out.shape == (rows, k) and out.dtype == np.min_scalar_type(m - 1)
    assert (out[:, 1:] > out[:, :-1]).all()
    assert int(out.max()) <= m - 1
    if k == m:
        assert (out == np.arange(m)).all()


def test_sorted_subsets_are_uniform():
    # 200,000 draws of 3-subsets of range(6): each of the 20 within 5% of 10,000
    out = diagonal._sorted_subsets(random.Random(11), 200_000, 3, 6).astype(np.int64)
    counts = np.bincount(out @ np.array([36, 6, 1]), minlength=216)
    hits = counts[[a * 36 + b * 6 + c for a, b, c in combinations(range(6), 3)]]
    assert hits.sum() == 200_000
    assert (np.abs(hits - 10_000) <= 500).all(), hits


def test_sampled_splits_are_products_with_exact_divisor_weights():
    n, rows = 12, 50_000
    out = diagonal._sampled_splits(random.Random(2), rows, n).astype(np.int64)
    for row in out[:200]:
        A, B = np.unique(row // n), np.unique(row % n)
        assert len(A) * len(B) == n
        assert (row == (A[:, None] * n + B).ravel()).all()
    sizes = (np.diff(out // n, axis=1) != 0).sum(axis=1) + 1
    divs = [a for a in range(1, n + 1) if n % a == 0]
    weights = [math.comb(n, a) * math.comb(n, n // a) for a in divs]
    total = sum(weights)
    for a, w in zip(divs, weights):
        mean = rows * w / total
        sd = math.sqrt(mean * (1 - w / total))
        assert abs((sizes == a).sum() - mean) <= 5 * sd + 1, (a, (sizes == a).sum(), mean)


def test_sampled_rows_follow_the_seed():
    def draws(seed):
        rng = random.Random(seed)
        return diagonal._sorted_subsets(rng, 300, 8, 64), diagonal._sampled_splits(rng, 300, 8)

    same, again, other = draws(4), draws(4), draws(5)
    for x, y, z in zip(same, again, other):
        assert (x == y).all()
        assert (x != z).any()
