"""Exact arithmetic for integer combinations of roots of unity.

The kernel of every orthogonality check: does ``sum_k counts[k] zeta_L^k``
vanish? Write r = rad(L) = p_1 ... p_k and m = L/r. As zeta_L^m = zeta_r
and [Q(zeta_L):Q(zeta_r)] = m, the sum vanishes iff every slice
``sum_t counts[j + m t] zeta_r^t`` (j < m) does. Z[zeta_r] is the tensor
product of the Z[zeta_p], p | r, and up to a Galois automorphism (which
cannot change whether a sum vanishes) zeta_r^t is the product of the
zeta_p^(t mod p). So count j + m t goes to grid cell (t mod p_1, ...,
t mod p_k, j), and as zeta_p^(p-1) = -(1 + ... + zeta_p^(p-2)), each prime
axis in turn subtracts its last entry from the others and drops it. The sum
vanishes iff the phi(L) entries left are 0 (de Bruijn 1953; Lam & Leung,
J. Algebra 2000). The map has entries 0 and +-1; no Phi_n enters it.

``CyclotomicSum.is_zero`` runs the map on Python ints, which cannot wrap,
and ``_batch_is_zero`` on many sums at once in numpy. One constant bounds
the work: a zero test at L costs L k steps, and building ``Phi_n``
(``cyclotomic_poly``, off the zero test's path) about n 2^k. Above
``MAX_KERNEL_COST`` both raise ``BudgetExceededError``.
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
def _crt_plan(L: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(m, ((p, e_p), ...)): L = m rad(L), and e_p = 1 mod p, 0 mod rad(L)/p for each p | L.

    Checks the zero test's cost, L k steps for k distinct primes, and L
    alone first, so that a huge exponent is refused before it is factored.
    """
    _check_cost(f"a zero test at L={L}", L)
    primes = _prime_factors(L)
    _check_cost(f"a zero test at L={L}: L * {len(primes)} primes", L * len(primes))
    r = math.prod(primes)
    return L // r, tuple((p, r // p * pow(r // p, -1, p)) for p in primes)


@lru_cache(maxsize=None)
def _crt_grid(L: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """(index, shape): index[c] = j + m t at cell c = (t mod p_1, ..., t mod p_k, j), flattened."""
    m, steps = _crt_plan(L)
    t = sum(np.ix_(*(np.arange(p) * e for p, e in steps)))  # t = sum of (t mod p) e_p, mod rad(L)
    index = np.add.outer(t % (L // m) * m, np.arange(m)).ravel()
    index.flags.writeable = False
    return index, tuple(p for p, _ in steps) + (m,)


def _crt_coordinates(L: int, counts: np.ndarray) -> np.ndarray:
    """x[:, i]: the phi(L) coordinates of sum_k counts[i, k] zeta_L^k; 0 iff the sum vanishes.

    ``counts`` is a signed integer array of shape (rows, L), gathered onto
    the grid with the rows as the last axis, so each axis step runs across
    rows. A coordinate is a +-1 sum of distinct counts of its row, so it
    fits the dtype wherever the row's absolute sum does.
    """
    index, shape = _crt_grid(L)
    x = counts.T[index].reshape(shape + (len(counts),))
    for axis in range(len(shape) - 1):
        head = (slice(None),) * axis
        x = x[head + (slice(-1),)] - x[head + (slice(-1, None),)]
    return x.reshape(math.prod(x.shape[:-1]), -1)


def _batch_is_zero(L: int, counts: np.ndarray) -> np.ndarray:
    """Row i: does sum_k counts[i, k] zeta_L^k vanish? ``CyclotomicSum.is_zero``, batched."""
    return ~_crt_coordinates(L, counts).any(axis=0)


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
        # The map slice by slice: part[t] is grid cell (t mod p)_p, and
        # moving from t mod p = p - 1 to the other residues subtracts e_p.
        m, steps = _crt_plan(self.order)
        r, counts = self.order // m, self.counts
        for j in range(m):
            part = counts[j::m]
            if not any(part):
                continue
            part = list(part)
            for p, e in steps:
                for t in range(p - 1, r, p):
                    v = part[t]
                    if v:
                        part[t] = 0
                        for s in range(e, p * e, e):
                            part[(t - s) % r] -= v
            if any(part):
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
