"""Exact arithmetic for integer combinations of roots of unity.

The kernel of every orthogonality check: a sum ``sum_k counts[k] * zeta_L^k``
vanishes iff the counts polynomial is divisible by the L-th cyclotomic
polynomial. With r = rad(L) the test runs in degree phi(r): the sum splits
into L/r slices, each a sum of r-th roots of unity, and vanishes iff every
slice leaves remainder 0 modulo the monic ``Phi_r``. ``Phi_n`` itself is the
Moebius product of the binomials ``x^d - 1`` over the divisors d of n.
Coefficients are Python ints throughout, so nothing can silently wrap.

One constant bounds the work: a zero test at L costs L + phi(r)(r - phi(r))
steps (the slices plus the reduction table), and building ``Phi_n`` costs
about n * 2^k for k distinct prime factors (2^k binomials, each linear in
the degree). Above ``MAX_KERNEL_COST`` both raise ``BudgetExceededError``.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import zip_longest
from typing import Iterable

from .groups import BudgetExceededError

MAX_KERNEL_COST = 10**7


def _check_cost(what: str, cost: int) -> None:
    if cost > MAX_KERNEL_COST:
        raise BudgetExceededError(f"{what} costs {cost} > {MAX_KERNEL_COST} steps")


def _prime_factors(n: int) -> list[int]:
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Ascending coefficients of Phi_n, monic of degree phi(n).

    Phi_n is the product over squarefree e | n of (x^(n/e) - 1)^mu(e). The
    factors with mu = +1 are multiplied out by shift and subtract, then each
    factor with mu = -1 is divided out exactly; every step is linear in the
    degree. Results are memoized for the process lifetime.
    """
    if n < 1:
        raise ValueError("cyclotomic index must be a positive integer")
    _check_cost(f"Phi_{n}", n)
    primes = _prime_factors(n)
    _check_cost(f"Phi_{n}: n * 2^(prime factors)", n << len(primes))
    squarefree = [(1, 1)]  # (e, mu(e))
    for p in primes:
        squarefree += [(e * p, -mu) for e, mu in squarefree]
    poly = [1]
    for e, mu in squarefree:
        if mu == 1:  # poly * (x^d - 1)
            d = n // e
            poly = [a - b for a, b in zip_longest([0] * d + poly, poly, fillvalue=0)]
    for e, mu in squarefree:
        if mu == -1:  # poly / (x^d - 1): q[i] = q[i - d] - poly[i]
            d = n // e
            q = [-c for c in poly[:d]]
            for i in range(d, len(poly) - d):
                q.append(q[i - d] - poly[i])
            poly = q
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_table(L: int) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """(m, phi(r), rows) with r = rad(L), m = L/r, rows[k] = x^(phi(r)+k) mod Phi_r."""
    _check_cost(f"a zero test at L={L}", L)
    primes = _prime_factors(L)
    r = math.prod(primes)
    deg = math.prod(p - 1 for p in primes)
    _check_cost(f"a zero test at L={L}, r=rad(L)={r}: L + phi(r)(r - phi(r))", L + deg * (r - deg))
    base = tuple(-c for c in cyclotomic_poly(r)[:deg])  # x^deg mod Phi_r
    rows = [base] if r > 1 else []
    while len(rows) < r - deg:  # x * row mod Phi_r
        row = rows[-1]
        rows.append(tuple(a + row[-1] * b for a, b in zip((0,) + row[:-1], base)))
    return L // r, deg, tuple(rows)


class CyclotomicSum:
    """An exact integer combination of the L-th roots of unity.

    ``counts[k]`` is the coefficient of ``zeta_L^k``; entries may be negative,
    so differences of character sums live in the same type.
    """

    __slots__ = ("order", "counts")

    def __init__(self, order: int, counts: Iterable[int]):
        if order < 1:
            raise ValueError("root order must be a positive integer")
        cs = tuple(int(c) for c in counts)
        if len(cs) != order:
            raise ValueError(f"expected {order} coefficients, got {len(cs)}")
        self.order = order
        self.counts = cs

    @classmethod
    def from_exponents(cls, order: int, exponents: Iterable[int]) -> CyclotomicSum:
        counts = [0] * order
        for e in exponents:
            counts[e % order] += 1
        return cls(order, counts)

    def _require_same_order(self, other: CyclotomicSum) -> None:
        if self.order != other.order:
            raise ValueError(f"root order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: CyclotomicSum) -> CyclotomicSum:
        self._require_same_order(other)
        return CyclotomicSum(self.order, [a + b for a, b in zip(self.counts, other.counts)])

    def __sub__(self, other: CyclotomicSum) -> CyclotomicSum:
        self._require_same_order(other)
        return CyclotomicSum(self.order, [a - b for a, b in zip(self.counts, other.counts)])

    def rotated(self, r: int) -> CyclotomicSum:
        """Multiply by the unit zeta_L^r (cyclic shift of the exponents)."""
        L = self.order
        r %= L
        return CyclotomicSum(L, self.counts[-r:] + self.counts[:-r] if r else self.counts)

    def is_zero(self) -> bool:
        """Exact test: does the sum equal 0 as an algebraic number?"""
        # With r = rad(L) and m = L/r, zeta_L^m = zeta_r and zeta_L has
        # minimal polynomial x^m - zeta_r over Q(zeta_r), because
        # [Q(zeta_L):Q(zeta_r)] = phi(L)/phi(r) = m. So 1, zeta_L, ...,
        # zeta_L^(m-1) are independent over Q(zeta_r), and the sum
        # sum_j zeta_L^j * sum_t counts[j + m t] zeta_r^t vanishes iff every
        # slice counts[j::m] (j < m) reduces to 0 modulo Phi_r.
        m, deg, rows = _reduction_table(self.order)
        counts = self.counts
        for j in range(m):
            part = counts[j::m]
            rem = part[:deg]
            for c, row in zip(part[deg:], rows):
                if c:
                    rem = [a + c * b for a, b in zip(rem, row)]
            if any(rem):
                return False
        return True

    def approx_complex(self) -> complex:
        """Double-precision value; cross-validation oracle, never the decider."""
        L = self.order
        return sum(
            (c * cmath.exp(2j * cmath.pi * k / L) for k, c in enumerate(self.counts) if c),
            complex(0.0),
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CyclotomicSum)
            and self.order == other.order
            and self.counts == other.counts
        )

    def __hash__(self) -> int:
        return hash((self.order, self.counts))

    def __repr__(self) -> str:
        support = {k: c for k, c in enumerate(self.counts) if c}
        return f"CyclotomicSum(L={self.order}, {support!r})"
