"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria that state a
runtime bound assert it; the measured time is printed either way.
"""

from __future__ import annotations

import random
import time
from itertools import combinations

from conftest import (
    are_orthogonal,
    char_sum_of_pair_sums,
    iter_product_splits,
    meets_each_antidiagonal_coset_once,
    run_cli,
)
from test_cyclotomic import _random_sum

from spectile.diagonal import (
    check_diagonal_spectral,
    count_product_splits,
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


def test_search_soundness_up_to_12():
    t0 = time.time()
    spectra_checked = complements_checked = 0
    for n in range(1, 13):
        for orders in _presentations(n):
            spec = GroupSpec(orders)
            els = list(spec.elements())
            for k in range(1, n + 1):
                for cand in combinations(els, k):
                    S = PointSet(spec, cand)
                    res = find_spectrum(S)
                    assert res.status in ("found", "exhausted")
                    if res.status == "found":
                        check = verify_spectral_pair(S, res.certificate.spectrum)
                        assert isinstance(check, SpectrumCertificate)
                    else:
                        assert not any(
                            isinstance(
                                verify_spectral_pair(S, PointSet(spec, lam)),
                                SpectrumCertificate,
                            )
                            for lam in combinations(els, k)
                        )
                    spectra_checked += 1
                if n % k == 0:
                    for cand in combinations(els, k):
                        A = PointSet(spec, cand)
                        res = find_complement(A)
                        assert res.status in ("found", "exhausted")
                        if res.status == "found":
                            assert verify_tiling(A, res.certificate.complement).ok
                        else:
                            assert not any(
                                verify_tiling(A, PointSet(spec, b)).ok
                                for b in combinations(els, n // k)
                            )
                        complements_checked += 1
    _passline(
        "search-soundness",
        t0,
        f"{spectra_checked} spectrum searches, {complements_checked} complement searches",
    )


def test_non_spectral_regression_exit_code(tmp_path, capsys):
    t0 = time.time()
    f = tmp_path / "S.set"
    f.write_text("group 4\n0\n1\n2\n", encoding="utf-8")
    code, out = run_cli(["find-spectrum", str(f)], capsys)
    assert code == 1  # exhausted with proof, never conflated with budget (3)
    assert out.splitlines()[0] == "no spectrum (exhaustive)"
    _passline("non-spectral-regression", t0, "exit 1 with exhaustion proof")
