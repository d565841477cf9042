"""The zero test as it was before the radical reduction, kept as a test oracle.

``dense_is_zero`` reduces the whole length-L count vector modulo Phi_L with a
dense table of the rows x^j mod Phi_L for phi(L) <= j < L. Phi_L comes from
sympy, so the oracle shares no code with ``spectile.cyclotomic``.
"""

from __future__ import annotations

from functools import lru_cache

import sympy


@lru_cache(maxsize=None)
def sympy_cyclotomic(n: int) -> tuple[int, ...]:
    """Ascending coefficients of Phi_n, from sympy."""
    coeffs = sympy.Poly(sympy.cyclotomic_poly(n, sympy.Symbol("x"))).all_coeffs()
    return tuple(int(c) for c in reversed(coeffs))


@lru_cache(maxsize=None)
def _reduction_rows(L: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """x^j mod Phi_L for deg <= j < L, as coefficient rows of length deg."""
    phi = sympy_cyclotomic(L)
    deg = len(phi) - 1
    base = tuple(-c for c in phi[:deg])  # x^deg mod Phi_L
    rows: list[tuple[int, ...]] = []
    row = base
    for _ in range(deg, L):
        rows.append(row)
        top = row[deg - 1]
        row = tuple((row[i - 1] if i else 0) + top * base[i] for i in range(deg))
    return deg, tuple(rows)


def dense_is_zero(counts: tuple[int, ...]) -> bool:
    """Does sum_k counts[k] zeta_L^k vanish, L = len(counts)?"""
    L = len(counts)
    deg, rows = _reduction_rows(L)
    rem = list(counts[:deg])
    for j in range(deg, L):
        c = counts[j]
        if c:
            row = rows[j - deg]
            for i in range(deg):
                rem[i] += c * row[i]
    return not any(rem)
