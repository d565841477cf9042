"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria that state a
runtime bound assert it; the measured time is printed either way.
"""

from __future__ import annotations

import math
import random
import time
from itertools import combinations, product

import numpy as np

from conftest import (
    are_orthogonal,
    char_sum_of_pair_sums,
    count_product_splits,
    iter_product_splits,
    meets_each_antidiagonal_coset_once,
    run_cli,
)
from reference_cyclotomic import dense_is_zero
from test_cyclotomic import _random_sum

from spectile.diagonal import (
    check_diagonal_spectral,
    diagonal_subgroup,
    product_with_diagonal,
    run_agreement_harness,
    sum_multiset_check,
)
from spectile.groups import GroupSpec, PointSet, product_group, product_point_set
from spectile.lifting import BoxedSet, product_lift_identity
from spectile.spectral import (
    SpectrumCertificate,
    char_sum_on_set,
    find_spectrum,
    verify_spectral_pair,
)
from spectile.tiling import find_complement, verify_tiling


def _passline(name: str, t0: float, extra: str = "") -> None:
    msg = f"ACCEPTANCE {name}: PASS ({time.time() - t0:.1f}s"
    print(msg + (f", {extra})" if extra else ")"))


def _presentations(n: int) -> list[list[int]]:
    """All ordered factor lists with product n (factors >= 2; [1] for n=1)."""
    if n == 1:
        return [[1]]
    out: list[list[int]] = []

    def rec(rem: int, acc: list[int]) -> None:
        if rem == 1:
            out.append(list(acc))
            return
        for f in range(2, rem + 1):
            if rem % f == 0:
                rec(rem // f, acc + [f])

    rec(n, [])
    return out


def test_pairwise_vs_multiset_exhaustive():
    t0 = time.time()
    expected = {(2,): 6, (3,): 84, (4,): 1820}
    for orders, want in expected.items():
        spec = GroupSpec(orders)
        pair = diagonal_subgroup(spec)
        checked = disagreements = 0
        for ranks in combinations(range(pair.ambient.order), spec.order):
            P = PointSet.from_ranks(pair.ambient, ranks)
            v = check_diagonal_spectral(P, pair=pair)
            assert not v.shortcut
            checked += 1
            if not v.agree:
                disagreements += 1
        assert checked == want
        assert disagreements == 0
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _passline("pairwise-vs-multiset-exhaustive", t0, "6+84+1820 candidates, 0 disagreements")


def test_pairwise_vs_multiset_sampled():
    t0 = time.time()
    for text in ("6", "2x3"):
        spec = GroupSpec([int(x) for x in text.split("x")])
        rep = run_agreement_harness(spec, budget=100_000, seed=0)
        assert rep.mode == "sampled"
        assert rep.checked == 100_000
        assert rep.disagreements == 0
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _passline("pairwise-vs-multiset-sampled", t0, "2 groups x 100000 candidates, 0 disagreements")


def test_tiling_vs_product_spectral_all_groups_up_to_12():
    t0 = time.time()
    total = disagreements = 0
    for n in range(1, 13):
        for orders in _presentations(n):
            spec = GroupSpec(orders)
            expected = count_product_splits(spec)
            seen = 0
            for A, B in iter_product_splits(spec):
                v = product_with_diagonal(A, B)
                seen += 1
                if not v.agree:
                    disagreements += 1
            assert seen == expected
            total += seen
    assert disagreements == 0
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _passline("tiling-vs-product-spectral", t0, f"{total} splits over orders 1..12")


def test_folded_character_sum_identity():
    t0 = time.time()
    pool = [
        [2], [3], [4], [2, 2], [5], [6], [2, 3], [7], [8], [2, 4], [2, 2, 2],
        [9], [3, 3], [10], [12], [2, 2, 3], [13], [14], [15], [16], [4, 4],
        [2, 8], [2, 2, 2, 2],
    ]
    rng = random.Random(0)
    for _ in range(10_000):
        spec = GroupSpec(rng.choice(pool))
        prod = product_group(spec, spec)
        size = spec.order if rng.random() < 0.5 else rng.randint(1, 2 * spec.order)
        ranks = rng.sample(range(prod.order), min(size, prod.order))
        P = PointSet.from_ranks(prod, sorted(ranks))
        g = spec.element_at(rng.randrange(spec.order))
        ambient_route = char_sum_on_set(P, prod.element(g.coords + g.coords))
        base_route = char_sum_of_pair_sums(P, g, base=spec)
        assert ambient_route == base_route  # exact equality of count vectors
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _passline("folded-character-identity", t0, "10000 triples, 100% exact equality")


def test_antidiagonal_transversal_equivalence_exhaustive():
    # P meets every antidiagonal coset once iff {a + b : (a, b) in P} is G
    t0 = time.time()
    checked = 0
    for orders in ([1], [2], [3], [4], [2, 2]):
        spec = GroupSpec(orders)
        prod = product_group(spec, spec)
        for ranks in combinations(range(prod.order), spec.order):
            P = PointSet.from_ranks(prod, ranks)
            assert meets_each_antidiagonal_coset_once(P, spec) == sum_multiset_check(P).ok
            checked += 1
    _passline("antidiagonal-transversal", t0, f"{checked} candidates, 0 disagreements")


def test_lift_product_identity_random():
    t0 = time.time()
    rng = random.Random(0)
    for _ in range(1000):
        d = rng.randint(1, 2)
        dims = [rng.randint(1, 6) for _ in range(d)]
        volume = 1
        for n in dims:
            volume *= n

        def sample_box() -> BoxedSet:
            npts = rng.randint(1, volume)
            pts = set()
            while len(pts) < npts:
                pts.add(tuple(rng.randrange(n) for n in dims))
            return BoxedSet(dims, pts)

        k = rng.choice([1, 2, 3])
        assert product_lift_identity(sample_box(), sample_box(), k)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _passline("lift-product-identity", t0, "1000 random instances, all equal")


def test_desk_scale_pipeline_z24_cubed(tmp_path, capsys):
    t0 = time.time()
    spec = GroupSpec([24, 24, 24])
    # B the subgroup {0,12}^3, A the box transversal [0,12)^3
    b_lines = ["group 24^3"] + [
        f"{x},{y},{z}" for x in (0, 12) for y in (0, 12) for z in (0, 12)
    ]
    a_lines = ["group 24^3"] + [
        f"{x},{y},{z}"
        for x in range(12)
        for y in range(12)
        for z in range(12)
    ]
    fa = tmp_path / "A.set"
    fb = tmp_path / "B.set"
    fa.write_text("\n".join(a_lines) + "\n", encoding="utf-8")
    fb.write_text("\n".join(b_lines) + "\n", encoding="utf-8")

    code, out = run_cli(["product-diagonal", str(fa), str(fb)], capsys)
    assert code == 0
    assert out == "tiling=yes product-spectral=yes agree=yes\n"
    elapsed = time.time() - t0
    assert elapsed < 10.0

    # Full pairwise orthogonality is ~9.5e7 pairs; sample 1000 pairs instead
    # (declared, not hidden) and verify each directly.
    P = product_point_set(
        PointSet.from_coords(spec, (r.split(",") for r in a_lines[1:])),
        PointSet.from_coords(spec, (r.split(",") for r in b_lines[1:])),
    )
    n = spec.order
    total_pairs = n * (n - 1) // 2
    rng = random.Random(0)
    for _ in range(1000):
        r1, r2 = rng.sample(range(n), 2)
        d1 = P.group.element(spec.element_at(r1).coords * 2)
        d2 = P.group.element(spec.element_at(r2).coords * 2)
        assert are_orthogonal(P, d1, d2)
    print(
        f"note: spot-verified 1000 of {total_pairs} diagonal character pairs "
        "(full pairwise is out of budget)"
    )
    _passline("desk-scale-24^3", t0, f"exit 0 in {elapsed:.1f}s, 1000/{total_pairs} pairs sampled")


def test_exact_vs_float_cross_validation():
    t0 = time.time()
    rng = random.Random(0)
    zeros = 0
    for _ in range(10_000):
        s = _random_sum(rng)
        exact = s.is_zero()
        zeros += exact
        assert exact == (abs(s.approx_complex()) < 1e-9)
    assert zeros > 500  # both branches genuinely exercised
    _passline("exact-vs-float", t0, f"10000 sums, {zeros} exact zeros, 0 mismatches")


def _oracle_tables(orders: list[int]):
    """Rank-indexed tables of Z_orders, from coordinates only (lexicographic = rank order).

    ``sub[x, y]`` is the rank of g_x - g_y, ``add[x, y]`` that of g_x + g_y,
    and ``pairing[h, g]`` the exponent e of zeta_L^e = chi_h(g), L the exponent.
    """
    coords = np.array(list(product(*(range(n) for n in orders))), dtype=np.int64)
    mods = np.array(orders, dtype=np.int64)
    strides = np.cumprod([1] + orders[:0:-1])[::-1]
    L = math.lcm(*orders)
    sub = (coords[:, None] - coords[None]) % mods @ strides
    add = (coords[:, None] + coords[None]) % mods @ strides
    pairing = (coords[:, None] * coords[None] * (L // mods)).sum(axis=2) % L
    return sub, add, pairing, L


def _oracle_zero_masks(pairing, L: int, sets: np.ndarray) -> np.ndarray:
    """masks[s, h]: does sum_{g in sets[s]} chi_h(g) vanish?

    Decided by ``dense_is_zero``, once per distinct histogram.
    """
    n, m = len(pairing), len(sets)
    exps = pairing[:, sets] + (np.arange(n * m) * L).reshape(n, m, 1)
    histograms = np.bincount(exps.ravel(), minlength=n * m * L).reshape(n * m, L)
    rows, inverse = np.unique(histograms, axis=0, return_inverse=True)
    zero = np.array([dense_is_zero(row) for row in map(tuple, rows.tolist())])
    return zero[inverse.ravel()].reshape(n, m).T


def test_search_soundness_up_to_12():
    """Every search verdict, decided again by oracles that share no kernel with spectile.

    A spectrum Lambda of S (|Lambda| = |S|) has every difference lambda - lambda'
    of distinct points in the zero set of 1_S's character sums, computed here
    with the sympy-based ``dense_is_zero``; B complements A iff the integer
    coverage count of A + B is 1 everywhere.
    """
    t0 = time.time()
    spectra_checked = complements_checked = spectrum_candidates = complement_candidates = 0
    for n in range(1, 13):
        for orders in _presentations(n):
            spec = GroupSpec(orders)
            sub, add, pairing, L = _oracle_tables(orders)
            for k in range(1, n + 1):
                sets = np.array(list(combinations(range(n), k)), dtype=np.int64)
                masks = _oracle_zero_masks(pairing, L, sets)
                i, j = np.nonzero(~np.eye(k, dtype=bool))
                differences = sub[sets[:, i], sets[:, j]]  # per candidate Lambda
                for S_ranks, zero in zip(sets, masks):
                    res = find_spectrum(PointSet.from_ranks(spec, S_ranks))
                    assert res.status in ("found", "exhausted")
                    if res.status == "found":
                        lam = res.certificate.spectrum.rank_array
                        assert len(lam) == k and zero[sub[lam[i], lam[j]]].all()
                    else:
                        assert not zero[differences].all(axis=1).any()
                        spectrum_candidates += len(sets)
                    spectra_checked += 1
                if n % k:
                    continue
                complements = np.array(list(combinations(range(n), n // k)), dtype=np.int64)
                offsets = np.arange(len(complements))[:, None] * n
                for A_ranks in sets:
                    res = find_complement(PointSet.from_ranks(spec, A_ranks))
                    assert res.status in ("found", "exhausted")
                    if res.status == "found":
                        covered = add[A_ranks[:, None], res.certificate.complement.rank_array]
                        assert (np.bincount(covered.ravel(), minlength=n) == 1).all()
                    else:
                        covered = add[A_ranks[:, None, None], complements].transpose(1, 0, 2)
                        cells = covered.reshape(len(complements), n) + offsets
                        counts = np.bincount(cells.ravel(), minlength=cells.size).reshape(-1, n)
                        assert not (counts == 1).all(axis=1).any()
                        complement_candidates += len(complements)
                    complements_checked += 1
    _passline(
        "search-soundness",
        t0,
        f"{spectra_checked} spectrum searches ({spectrum_candidates} candidates), "
        f"{complements_checked} complement searches ({complement_candidates} candidates)",
    )


def test_non_spectral_regression_exit_code(tmp_path, capsys):
    t0 = time.time()
    f = tmp_path / "S.set"
    f.write_text("group 4\n0\n1\n2\n", encoding="utf-8")
    code, out = run_cli(["find-spectrum", str(f)], capsys)
    assert code == 1  # exhausted with proof, never conflated with budget (3)
    assert out.splitlines()[0] == "no spectrum (exhaustive)"
    _passline("non-spectral-regression", t0, "exit 1 with exhaustion proof")
