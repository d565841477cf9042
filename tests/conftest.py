"""Shared test helpers: independent character oracles, the product splits and a CLI runner."""

from __future__ import annotations

import cmath
import functools
import math
from itertools import combinations
from typing import Iterator, Sequence

from spectile.cyclotomic import CyclotomicSum
from spectile.groups import GroupElement, GroupSpec, PointSet
from spectile.spectral import char_sum_on_set


def float_char_sum(
    s_coords: Sequence[Sequence[int]],
    h_coords: Sequence[int],
    orders: Sequence[int],
) -> complex:
    """sum over S of exp(2 pi i <h, s>) computed purely in floats.

    Deliberately independent of the package's exact arithmetic: the weights
    and the dot product are recomputed from scratch here.
    """
    L = math.lcm(*orders)
    total = 0j
    for s in s_coords:
        e = sum((L // n) * hc * sc for n, hc, sc in zip(orders, h_coords, s))
        total += cmath.exp(2j * cmath.pi * e / L)
    return total


def character_pairing(h: GroupElement, g: GroupElement) -> int:
    """Exponent k with chi_h(g) = zeta_L^k, L the ambient exponent."""
    spec = h.group
    L = spec.exponent
    return sum((L // n) * a * b for n, a, b in zip(spec.orders, h.coords, g.coords)) % L


def are_orthogonal(S: PointSet, h1: GroupElement, h2: GroupElement) -> bool:
    """Do the characters of h1 and h2 restrict orthogonally to S?"""
    return char_sum_on_set(S, h1 - h2).is_zero()


def char_sum_of_pair_sums(P: PointSet, g: GroupElement, base: GroupSpec) -> CyclotomicSum:
    """The exact sum of chi_g(a + b) over (a, b) in P, computed in the base group.

    Independent route for the identity chi_(g,g)(P) = sum_i chi_g(a_i + b_i):
    here each pair is folded into the base group before a single character
    evaluation, whereas the ambient route evaluates the product character.
    """
    d = len(base.orders)
    counts = [0] * base.exponent
    for p in P.points:
        a = GroupElement(base, p.coords[:d])
        b = GroupElement(base, p.coords[d:])
        counts[character_pairing(g, a + b)] += 1
    return CyclotomicSum(base.exponent, counts)


def meets_each_antidiagonal_coset_once(P: PointSet, base: GroupSpec) -> bool:
    """Does P hold exactly one point of each coset {(a + g, -g) : g in G}?

    The cosets of the antidiagonal {(g, -g)} in G x G are enumerated with
    group arithmetic, one per a in G, and P is probed by membership: no
    sum key or rank is computed.
    """
    zero = base.identity()
    return all(
        sum(
            P.group.element((a + g).coords + (zero - g).coords) in P
            for g in base.elements()
        ) == 1
        for a in base.elements()
    )


def iter_product_splits(spec: GroupSpec) -> Iterator[tuple[PointSet, PointSet]]:
    """All (A, B) pairs with |A| * |B| = |G|, in deterministic order."""
    n = spec.order
    as_set = functools.cache(functools.partial(PointSet.from_ranks, spec))
    for a in range(1, n + 1):
        if n % a == 0:
            for ranks_a in combinations(range(n), a):
                for ranks_b in combinations(range(n), n // a):
                    yield as_set(ranks_a), as_set(ranks_b)


def run_cli(args: list[str], capsys) -> tuple[int, str]:
    from spectile.cli import main

    code = main(args)
    out = capsys.readouterr().out
    return code, out
