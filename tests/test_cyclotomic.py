from __future__ import annotations

import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_cyclotomic import dense_is_zero, sympy_cyclotomic

from spectile.cyclotomic import (
    MAX_KERNEL_COST,
    CyclotomicSum,
    _reduction_table,
    cyclotomic_poly,
)
from spectile.groups import BudgetExceededError


def test_phi_1():
    assert cyclotomic_poly(1) == (-1, 1)


def test_phi_4():
    assert cyclotomic_poly(4) == (1, 0, 1)


def test_phi_6():
    assert cyclotomic_poly(6) == (1, -1, 1)


@pytest.mark.parametrize("n", list(range(1, 121)) + [105, 360])
def test_phi_matches_sympy_oracle(n):
    assert cyclotomic_poly(n) == sympy_cyclotomic(n)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5000))
def test_phi_matches_sympy_on_random_indices(n):
    assert cyclotomic_poly(n) == sympy_cyclotomic(n)


def test_phi_degree_is_totient():
    for n in range(1, 200):
        assert len(cyclotomic_poly(n)) - 1 == sympy.totient(n)


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def test_phi_reconstruction_up_to_360():
    for n in range(1, 361):
        prod: tuple[int, ...] = (1,)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _poly_mul(prod, cyclotomic_poly(d))
        assert prod == (-1,) + (0,) * (n - 1) + (1,)  # x^n - 1


def test_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


def test_is_zero_minus_one_pair():
    assert CyclotomicSum.from_exponents(2, [0, 1]).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 12, 30, 360])
def test_is_zero_full_geometric_sum(n):
    s = CyclotomicSum.from_exponents(n, range(n))
    assert s.is_zero() == (n > 1)  # for n=1 the sum is 1, not 0


def test_is_zero_rejects_nonvanishing():
    assert not CyclotomicSum.from_exponents(4, [0, 1, 3]).is_zero()


def test_value_semantics_after_subtraction():
    # 1 + zeta_3 and -zeta_3^2 are the same algebraic number
    a = CyclotomicSum(3, [1, 1, 0])
    b = CyclotomicSum(3, [0, 0, -1])
    assert (a - b).is_zero()
    assert not a.is_zero() and not b.is_zero()


def test_approx_complex_values():
    assert abs(CyclotomicSum.from_exponents(2, [0, 1]).approx_complex()) < 1e-12
    assert abs(CyclotomicSum.from_exponents(1, [0]).approx_complex() - 1.0) < 1e-12
    assert abs(CyclotomicSum.from_exponents(4, [0, 1]).approx_complex() - (1 + 1j)) < 1e-12


def _add_vanishing_layer(counts: list[int], L: int, rng: random.Random) -> None:
    # c * zeta^start * (1 + zeta_d + ... + zeta_d^(d-1)) = 0 for any divisor d > 1
    divisors = [d for d in range(2, L + 1) if L % d == 0]
    if not divisors:
        return
    d = rng.choice(divisors)
    start = rng.randrange(L)
    c = rng.randint(-50, 50)
    for j in range(d):
        counts[(start + j * (L // d)) % L] += c


def _random_sum(rng: random.Random) -> CyclotomicSum:
    L = rng.randint(1, 360)
    counts = [0] * L
    if rng.random() < 0.4:
        # exact zeros: combinations of vanishing layers only
        for _ in range(rng.randint(1, 4)):
            _add_vanishing_layer(counts, L, rng)
    else:
        for _ in range(rng.randint(1, 30)):
            counts[rng.randrange(L)] += rng.randint(-100, 100)
        if rng.random() < 0.3:  # near-miss shapes: noise on top of a relation
            _add_vanishing_layer(counts, L, rng)
    return CyclotomicSum(L, counts)


def test_exact_vs_float_cross_validation():
    rng = random.Random(20240)
    zeros = 0
    for _ in range(2000):
        s = _random_sum(rng)
        exact = s.is_zero()
        zeros += exact
        assert exact == (abs(s.approx_complex()) < 1e-9)
    assert zeros > 50  # the planted relations must actually exercise the zero path


def test_zero_test_invariant_under_rotation():
    rng = random.Random(7)
    for _ in range(300):
        s = _random_sum(rng)
        expected = s.is_zero()
        for r in (1, 3, s.order // 2 or 1, s.order - 1):
            assert s.rotated(r).is_zero() == expected


def _planted_sum(L: int, rng: random.Random) -> tuple[int, ...]:
    counts = [0] * L
    for _ in range(rng.randint(1, 4)):
        _add_vanishing_layer(counts, L, rng)
    if rng.random() < 0.5:  # near misses: a little noise on top of the relations
        for _ in range(rng.randint(1, 3)):
            counts[rng.randrange(L)] += rng.randint(-2, 2)
    return tuple(counts)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 600), st.randoms(use_true_random=False))
def test_zero_test_matches_dense_reduction(L, rng):
    counts = _planted_sum(L, rng)
    assert CyclotomicSum(L, counts).is_zero() == dense_is_zero(counts)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2520, 4096]), st.randoms(use_true_random=False))
def test_zero_test_matches_dense_reduction_at_large_exponents(L, rng):
    counts = _planted_sum(L, rng)
    assert CyclotomicSum(L, counts).is_zero() == dense_is_zero(counts)


def test_zero_test_runs_at_the_radical():
    m, deg, rows = _reduction_table(5040)  # rad = 210, phi(210) = 48
    assert (m, deg, len(rows), len(rows[0])) == (24, 48, 210 - 48, 48)
    # x^2048 = -1 in Q(zeta_4096): the test is c_k == c_(k + 2048)
    assert _reduction_table(4096) == (2048, 1, ((-1,),))
    counts = [0] * 4096
    counts[5] = counts[5 + 2048] = 7
    assert CyclotomicSum(4096, counts).is_zero()
    counts[5] = 6
    assert not CyclotomicSum(4096, counts).is_zero()


def test_cost_bound_refuses_large_radicals():
    # rad(30030) = 30030: 30030 + 5760 * 24270 > 10^7
    with pytest.raises(BudgetExceededError, match=str(MAX_KERNEL_COST)):
        CyclotomicSum.from_exponents(30030, [0, 15015]).is_zero()
    # rad(13860) = 2310: 13860 + 480 * 1830 is within the bound
    assert CyclotomicSum.from_exponents(13860, [0, 6930]).is_zero()
    with pytest.raises(BudgetExceededError):
        cyclotomic_poly(MAX_KERNEL_COST + 1)
    with pytest.raises(BudgetExceededError):  # refused before factoring
        _reduction_table(2**61 - 1)


def test_sum_difference_requires_same_order():
    with pytest.raises(ValueError):
        CyclotomicSum(2, [1, 0]) - CyclotomicSum(4, [1, 0, 0, 0])


def test_counts_length_enforced():
    with pytest.raises(ValueError):
        CyclotomicSum(4, [1, 2, 3])
