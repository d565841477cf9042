from __future__ import annotations

import itertools

import pytest

from spectile.groups import (
    BudgetExceededError,
    GroupElement,
    GroupSpec,
    PointSet,
    parse_group_spec,
    product_group,
    product_point_set,
)

# a spread of presentations up to order 64, several shapes per order
GROUPS_TO_64 = [
    [1], [2], [3], [4], [2, 2], [5], [6], [2, 3], [8], [2, 4], [2, 2, 2],
    [9], [3, 3], [12], [2, 2, 3], [16], [4, 4], [2, 8], [24], [2, 3, 4],
    [36], [6, 6], [48], [64], [8, 8], [4, 4, 4], [2, 2, 2, 2, 2, 2],
]


def test_parse_repeated_factor():
    g = parse_group_spec("24^3")
    assert g.orders == (24, 24, 24)
    assert g.order == 13824


def test_parse_trivial_group():
    g = parse_group_spec("1")
    assert g.orders == (1,)
    assert g.order == 1


def test_parse_mixed_factors():
    g = parse_group_spec("2x3")
    assert g.orders == (2, 3)
    assert g.order == 6
    assert g.exponent == 6


def test_parse_comma_and_caret_mix():
    assert parse_group_spec("2,3^2x5").orders == (2, 3, 3, 5)


@pytest.mark.parametrize(
    "bad", ["", "0", "-2", "2^0", "0^3", "a", "2,,3", "2x", "^3", "2 x 3", "2.5"]
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_group_spec(bad)


@pytest.mark.parametrize("bad", ["\u0661\u0662", "2x\u0663", "4^\u0662", "\uff11\uff12", "1_0"])
def test_parse_rejects_non_ascii_digits(bad):
    with pytest.raises(ValueError, match="malformed"):
        parse_group_spec(bad)


def test_parse_rejects_oversized():
    with pytest.raises(ValueError, match="size limit"):
        parse_group_spec("2^64")
    with pytest.raises(ValueError, match="size limit"):
        parse_group_spec("2^2000")


def test_spec_equality_is_by_factor_list():
    assert parse_group_spec("2x3") != parse_group_spec("6")
    assert parse_group_spec("2x3") == GroupSpec([2, 3])
    assert parse_group_spec("3x2") != parse_group_spec("2x3")


def test_add_in_z4():
    z4 = GroupSpec([4])
    assert (z4.element([3]) + z4.element([2])).coords == (1,)


def test_add_in_z2xz3():
    g = GroupSpec([2, 3])
    assert (g.element([1, 2]) + g.element([1, 2])).coords == (0, 1)


def test_neg_identity():
    g = GroupSpec([5, 7, 2])
    assert (-g.identity()).coords == (0, 0, 0)


def test_coords_reduced_eagerly():
    g = GroupSpec([4, 6])
    assert g.element([7, -1]).coords == (3, 5)


def test_add_rejects_mismatched_ambient():
    a = GroupSpec([4]).element([1])
    b = GroupSpec([5]).element([1])
    with pytest.raises(ValueError, match="ambient"):
        a + b


def test_enumerate_small_groups():
    assert [e.coords for e in GroupSpec([2]).elements()] == [(0,), (1,)]
    assert [e.coords for e in GroupSpec([2, 2]).elements()] == [
        (0, 0), (0, 1), (1, 0), (1, 1)
    ]
    assert [e.coords for e in GroupSpec([1]).elements()] == [(0,)]


def test_enumerate_budget():
    g = GroupSpec([100])
    with pytest.raises(BudgetExceededError):
        list(g.elements(budget=99))


@pytest.mark.parametrize("orders", GROUPS_TO_64)
def test_enumerate_yields_order_many_distinct(orders):
    g = GroupSpec(orders)
    seen = {e.coords for e in g.elements()}
    assert len(seen) == g.order


@pytest.mark.parametrize("orders", GROUPS_TO_64)
def test_group_axioms_exhaustive(orders):
    g = GroupSpec(orders)
    els = list(g.elements())
    zero = g.identity()
    for a in els:
        assert a + zero == a
        assert a + (-a) == zero
    # associativity on all triples; sampled shapes keep this desk-scale
    if g.order <= 16:
        triples = itertools.product(els, repeat=3)
    else:
        triples = itertools.islice(
            itertools.product(els, els, els[:: max(1, g.order // 7)]), 50000
        )
    for a, b, c in triples:
        assert (a + b) + c == a + (b + c)
    for a, b in itertools.product(els, els[:64]):
        assert a + b == b + a


def test_product_group_orders():
    g = product_group(GroupSpec([4]), GroupSpec([4]))
    assert g.orders == (4, 4)
    assert g.order == 16


def test_product_group_large_exact_order():
    g24 = parse_group_spec("24^3")
    g = product_group(g24, g24)
    assert g.order == 13824**2


def test_pair_unpair_roundtrip_small():
    # a product point concatenates coordinates, and splitting them inverts it
    g1, g2 = GroupSpec([4]), GroupSpec([4])
    prod = product_group(g1, g2)
    A = PointSet.from_coords(g1, [[1]])
    B = PointSet.from_coords(g2, [[3]])
    (e,) = product_point_set(A, B, prod).points
    assert e.group == prod and e.coords == (1, 3)
    assert (g1.element(e.coords[:1]), g2.element(e.coords[1:])) == (A.points[0], B.points[0])


@pytest.mark.parametrize("orders", [[1], [2], [4], [2, 3], [8], [2, 2, 2]])
def test_pair_unpair_identity_exhaustive(orders):
    # G1 x G2 as a product point set is the product group, in its enumeration
    # order, and splitting the coordinates gives back every pair once
    g1 = GroupSpec(orders)
    g2 = GroupSpec(orders[::-1])
    prod = product_group(g1, g2)
    P = product_point_set(PointSet(g1, g1.elements()), PointSet(g2, g2.elements()), prod)
    assert P.points == tuple(prod.elements())
    d = len(g1.orders)
    assert [(g1.element(e.coords[:d]), g2.element(e.coords[d:])) for e in P] == [
        (a, b) for a in g1.elements() for b in g2.elements()
    ]


def test_point_set_sorts_and_dedupes():
    g = GroupSpec([4])
    ps = PointSet.from_coords(g, [[3], [1], [5], [3]])
    assert [p.coords for p in ps.points] == [(1,), (3,)]


def test_point_set_rejects_foreign_elements():
    g = GroupSpec([4])
    with pytest.raises(ValueError):
        PointSet(g, [GroupSpec([5]).element([1])])


def test_point_set_contains_and_ranks():
    g = GroupSpec([2, 3])
    ps = PointSet.from_coords(g, [[0, 1], [1, 2]])
    assert g.element([0, 1]) in ps
    assert g.element([1, 1]) not in ps
    assert ps.ranks() == (1, 5)


def test_point_set_value_semantics():
    g = GroupSpec([6])
    a = PointSet.from_coords(g, [[5], [0]])
    b = PointSet.from_coords(g, [[0], [5]])
    assert a == b
    assert hash(a) == hash(b)


def test_product_point_set_matches_nested_product():
    g = GroupSpec([3])
    A = PointSet.from_coords(g, [[0], [2]])
    B = PointSet.from_coords(g, [[1]])
    prod = product_group(g, g)
    ps = product_point_set(A, B, prod)
    assert [p.coords for p in ps.points] == [(0, 1), (2, 1)]


def test_element_rank_matches_enumeration_order():
    g = GroupSpec([3, 4, 2])
    for i, e in enumerate(g.elements()):
        assert e.rank() == i
        assert g.element_at(i) == e
