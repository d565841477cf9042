"""Exact arithmetic for integer combinations of roots of unity.

The kernel of every orthogonality check: a sum ``sum_k counts[k] * zeta_L^k``
vanishes iff the counts polynomial is divisible by the L-th cyclotomic
polynomial. With r = rad(L) the test runs in degree phi(r): the sum splits
into L/r slices, each a sum of r-th roots of unity, and vanishes iff every
slice leaves remainder 0 modulo the monic ``Phi_r``. ``Phi_n`` itself is the
Moebius product of the binomials ``x^d - 1`` over the divisors d of n.
Coefficients are Python ints throughout, so nothing can silently wrap.
``_batch_is_zero`` runs the same test on many sums at once in numpy, in
int64 only where a bound on the coefficients rules out overflow, on the
remainders ``_remainders`` returns.

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

import numpy as np

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


@lru_cache(maxsize=None)
def _reduction_matrix(L: int) -> tuple[np.ndarray, int]:
    """(M, max |M|): M[:, k] is row k of ``_reduction_table(L)``, int64, phi(r) x (r - phi(r))."""
    _, deg, rows = _reduction_table(L)
    matrix = np.array(rows, dtype=np.int64).reshape(-1, deg).T.copy()
    return matrix, int(np.abs(matrix).max()) if matrix.size else 0


def _batch_is_zero(L: int, counts: np.ndarray) -> np.ndarray:
    """Row i: does sum_k counts[i, k] zeta_L^k vanish? ``CyclotomicSum.is_zero``, batched."""
    # Across rows, on a transposed copy: numpy reduces a row of phi(L) entries slowly.
    return ~np.ascontiguousarray(_remainders(L, counts).T).any(axis=(0, 1))


def _remainders(L: int, counts: np.ndarray) -> np.ndarray:
    """rem[i, :, j]: slice j of row i of ``counts`` modulo Phi_r; row i vanishes iff all are 0.

    ``counts`` is an integer array of shape (rows, L). Each row splits into
    the same L/r slices as in the scalar test, and one matrix product with
    the reduction rows reduces every slice of every row modulo Phi_r, so
    the remainders are linear in the counts. A remainder coefficient is at
    most |S| (1 + (r - phi(r)) c) in absolute value, where |S| bounds the
    absolute sum of a row (L times its largest count) and c the reduction
    coefficients; below 2^62 the product runs in int64, otherwise on Python
    ints.
    """
    m, deg, _ = _reduction_table(L)
    r = L // m
    reduce, top = _reduction_matrix(L)
    peak = max(int(counts.max()), -int(counts.min())) if counts.size else 0
    if L * peak * (1 + (r - deg) * top) >= 2**62:
        counts, reduce = counts.astype(object), reduce.astype(object)
    slices = counts.reshape(len(counts), r, m)  # slices[i, t, j] = counts[i, j + m t]
    return slices[:, :deg] + np.matmul(reduce, slices[:, deg:])


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
