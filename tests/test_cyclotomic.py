from __future__ import annotations

import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_cyclotomic import dense_is_zero, sympy_cyclotomic

from spectile import cyclotomic
from spectile.cyclotomic import (
    MAX_KERNEL_COST,
    CyclotomicSum,
    _batch_is_zero,
    _crt_coordinates,
    _crt_plan,
    cyclotomic_poly,
)
from spectile.groups import BudgetExceededError, GroupSpec, PointSet


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


def _from_exponents(order: int, exponents) -> CyclotomicSum:
    counts = [0] * order
    for e in exponents:
        counts[e % order] += 1
    return CyclotomicSum(order, counts)


def _rotated(s: CyclotomicSum, r: int) -> CyclotomicSum:
    """s times the unit zeta_L^r: a cyclic shift of the exponents."""
    r %= s.order
    return CyclotomicSum(s.order, s.counts[-r:] + s.counts[:-r] if r else s.counts)


def test_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


def test_is_zero_minus_one_pair():
    assert _from_exponents(2, [0, 1]).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 12, 30, 360])
def test_is_zero_full_geometric_sum(n):
    s = _from_exponents(n, range(n))
    assert s.is_zero() == (n > 1)  # for n=1 the sum is 1, not 0


def test_is_zero_rejects_nonvanishing():
    assert not _from_exponents(4, [0, 1, 3]).is_zero()


def test_value_semantics_after_subtraction():
    # 1 + zeta_3 and -zeta_3^2 are the same algebraic number
    a = CyclotomicSum(3, [1, 1, 0])
    b = CyclotomicSum(3, [0, 0, -1])
    assert CyclotomicSum(3, [x - y for x, y in zip(a.counts, b.counts)]).is_zero()
    assert not a.is_zero() and not b.is_zero()


def test_approx_complex_values():
    assert abs(_from_exponents(2, [0, 1]).approx_complex()) < 1e-12
    assert abs(_from_exponents(1, [0]).approx_complex() - 1.0) < 1e-12
    assert abs(_from_exponents(4, [0, 1]).approx_complex() - (1 + 1j)) < 1e-12


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
            assert _rotated(s, r).is_zero() == expected


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


def _assert_batch_matches(L: int, rows: list[tuple[int, ...]]) -> None:
    got = _batch_is_zero(L, np.array(rows, dtype=np.int64)).tolist()
    assert got == [CyclotomicSum(L, row).is_zero() for row in rows]
    assert got == [dense_is_zero(row) for row in rows]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 600), st.integers(1, 6), st.randoms(use_true_random=False))
def test_batch_zero_test_matches_the_scalar_and_dense_tests(L, n, rng):
    _assert_batch_matches(L, [_planted_sum(L, rng) for _ in range(n)])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2, 4, 6, 8, 12, 30]), st.integers(0, 2**32))
def test_batch_zero_test_matches_the_scalar_test_on_tall_batches(L, seed):
    # The harness tests thousands of rows of a few remainders each, across
    # rows; a slip in that transposition would mix the remainders of rows.
    # One seed, not a drawn Random: hypothesis refuses a draw this large.
    rng = random.Random(seed)
    rows = [_planted_sum(L, rng) for _ in range(rng.randint(1000, 1500))]
    got = _batch_is_zero(L, np.array(rows, dtype=np.int64)).tolist()
    assert got == [CyclotomicSum(L, row).is_zero() for row in rows]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1155, 2520, 4096]), st.integers(1, 4), st.randoms(use_true_random=False))
def test_batch_zero_test_matches_at_large_exponents(L, n, rng):
    # rad(1155) = 3 * 5 * 7 * 11: Phi_1155 has coefficients of absolute value 2
    _assert_batch_matches(L, [_planted_sum(L, rng) for _ in range(n)])


def test_scalar_zero_test_is_exact_where_int64_would_wrap():
    L = 15
    # 2^62 times v: v is not 0 in Q(zeta_15), but each of its coordinates
    # is a multiple of 4, so in int64 those of 2^62 v would wrap to 0.
    v = (-1, -2, -2, 1, -1, 1, -2, 0, -1, -1, -1, 0, 0, 1, 1)
    coords = _crt_coordinates(L, np.array([v], dtype=np.int64))
    assert coords.any() and not (coords % 4).any()
    near = 2**61 - 1
    rows = [
        tuple(c << 62 for c in v),
        (near,) * L,  # near times the full geometric sum: zero
        (near - 1,) + (near,) * (L - 1),
        tuple(near * c for c in v),
        tuple(c << 70 for c in v),
        (2**70,) * L,
    ]
    got = [CyclotomicSum(L, row).is_zero() for row in rows]
    assert got == [False, True, False, False, False, True]
    assert got == [dense_is_zero(row) for row in rows]


def test_zero_test_runs_at_the_radical():
    m, steps = _crt_plan(5040)  # rad = 210 = 2 * 3 * 5 * 7, phi(5040) = 24 * 48
    assert (m, [p for p, _ in steps]) == (24, [2, 3, 5, 7])
    for p, e in steps:  # e_p = 1 mod p, 0 mod 210 / p
        assert [e % q for q in (2, 3, 5, 7)] == [int(q == p) for q in (2, 3, 5, 7)]
    counts = np.zeros((1, 5040), dtype=np.int64)
    assert _crt_coordinates(5040, counts).shape == (1152, 1)
    # x^2048 = -1 in Q(zeta_4096): the coordinates are c_k - c_(k + 2048)
    assert _crt_plan(4096) == (2048, ((2, 1),))
    rows = np.random.default_rng(1).integers(-9, 10, size=(3, 4096))
    assert (_crt_coordinates(4096, rows) == (rows[:, :2048] - rows[:, 2048:]).T).all()
    counts = [0] * 4096
    counts[5] = counts[5 + 2048] = 7
    assert CyclotomicSum(4096, counts).is_zero()
    counts[5] = 6
    assert not CyclotomicSum(4096, counts).is_zero()


def test_cost_bound_refuses_large_radicals():
    # rad(30030) = 30030, six primes: 30030 * 6 steps is within the bound
    assert _from_exponents(30030, [0, 15015]).is_zero()
    assert _from_exponents(13860, [0, 6930]).is_zero()
    # 9699690 = 2 * 3 * ... * 19 is within 10^7 alone, not at 8 steps a count
    with pytest.raises(BudgetExceededError, match=str(MAX_KERNEL_COST)):
        _crt_plan(9699690)
    with pytest.raises(BudgetExceededError, match=str(MAX_KERNEL_COST)):
        _batch_is_zero(20000003, np.zeros((0, 20000003), dtype=np.int8))
    with pytest.raises(BudgetExceededError):
        cyclotomic_poly(MAX_KERNEL_COST + 1)
    with pytest.raises(BudgetExceededError):  # refused before factoring
        _crt_plan(2**61 - 1)


def test_refusal_builds_no_length_l_array():
    import tracemalloc

    from spectile.spectral import verify_spectral_pair

    for L in (20000003, 2**61 - 1):
        spec = GroupSpec([L])
        S = PointSet.from_coords(spec, [(0,), (1,)])
        spectrum = PointSet.from_coords(spec, [(0,), (L // 2,)])
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match=str(MAX_KERNEL_COST)):
                verify_spectral_pair(S, spectrum)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _planted_rows(L: int, n: int, rng: random.Random) -> list[list[int]]:
    # Vanishing layers, and in half the rows one root on top: every sum is
    # 0 or has absolute value at least 1, so a float test can tell them apart.
    rows = []
    for i in range(n):
        counts = [0] * L
        for _ in range(rng.randint(1, 3)):
            _add_vanishing_layer(counts, L, rng)
        if i % 2:
            counts[rng.randrange(L)] += rng.choice((-1, 1))
        rows.append(counts)
    return rows


@pytest.mark.parametrize("L", [30030, 510510])
def test_batch_zero_test_at_exponents_beyond_the_sympy_oracle(L):
    rows = _planted_rows(L, 4, random.Random(L))
    got = _batch_is_zero(L, np.array(rows, dtype=np.int64)).tolist()
    assert got == [True, False] * 2
    sums = [CyclotomicSum(L, row) for row in rows]
    assert got == [s.is_zero() for s in sums]
    assert got == [abs(s.approx_complex()) < 1e-6 for s in sums]


def test_batch_zero_test_takes_zero_rows():
    for L in (1, 6, 30030):
        assert _batch_is_zero(L, np.zeros((0, L), dtype=np.int64)).shape == (0,)


def test_no_verdict_builds_a_cyclotomic_polynomial(monkeypatch):
    from spectile import diagonal
    from spectile.spectral import find_spectrum

    def refuse(n):
        raise AssertionError(f"Phi_{n} built on a verdict path")

    monkeypatch.setattr(cyclotomic, "cyclotomic_poly", refuse)
    for cached in (cyclotomic._crt_plan, cyclotomic._crt_grid, diagonal._reduced_characters):
        cached.cache_clear()
    assert _from_exponents(2520, [0, 1260]).is_zero()
    assert _batch_is_zero(30, np.array([[1] * 30, [1] + [0] * 29])).tolist() == [True, False]
    spec = GroupSpec([12])
    A = PointSet.from_coords(spec, [(0,), (6,)])
    B = PointSet.from_coords(spec, [(x,) for x in range(6)])
    assert diagonal.product_with_diagonal(A, B).agree
    assert find_spectrum(B).status == "found"


def test_counts_length_enforced():
    with pytest.raises(ValueError):
        CyclotomicSum(4, [1, 2, 3])
