"""The diagonal subgroup of G x G and the criteria built on it.

Three interlocking facts relate these subgroups to tiling, for a subset
``P`` of ``G x G`` with ``|P| = |G|``:

* ``(P, D)`` is a spectral pair, with ``D = {(g, g)}`` the diagonal subgroup,
  iff the multiset ``{a + b : (a, b) in P}`` covers ``G`` exactly once;
* for ``A, B`` in ``G`` with ``|A| |B| = |G|``: ``A`` tiles with ``B`` iff
  ``(A x B, D)`` is spectral;
* the multiset condition holds iff ``P`` picks exactly one representative of
  each coset of the antidiagonal ``{(g, -g)}``.

The first two are checked here: the sum-multiset test is the fast canonical
path, the full pairwise-character verification is kept as an independent
oracle, and the agreement harness compares two routes to the verdict on
streams of candidates. It checks its candidates by batched numpy forms of
the two routes, whose reference is ``check_diagonal_spectral`` (a property
test holds them to it), and its product splits through
``product_with_diagonal``. The third holds because ``a + b`` is constant on
each antidiagonal coset; the tests check it against an enumeration of the
cosets.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterator

import numpy as np

from .groups import (
    DEFAULT_ENUM_BUDGET,
    BudgetExceededError,
    GroupElement,
    GroupSpec,
    PointSet,
    format_point_set,
    product_group,
    product_point_set,
)
from .spectral import (
    _HISTOGRAM_ENTRIES,
    SpectrumCertificate,
    _coords_of,
    _sums_vanish,
    verify_spectral_pair,
)
from .tiling import (
    TilingCertificate,
    TilingFailure,
    _first_zero,
    _sum_table,
    _translate_ranks,
    verify_tiling,
)

# Cap on character evaluations (pairs times points) for the full pairwise
# verification route; beyond it only the multiset route runs.
DEFAULT_PAIR_OPS = 10**7

DEFAULT_HARNESS_BUDGET = 100_000


@dataclass(frozen=True)
class DiagonalPair:
    """The diagonal and antidiagonal subgroups of G x G."""

    base: GroupSpec
    ambient: GroupSpec
    diagonal: PointSet
    antidiagonal: PointSet


def diagonal_subgroup(base: GroupSpec, budget: int = DEFAULT_ENUM_BUDGET) -> DiagonalPair:
    """Construct {(g, g)} and {(g, -g)} in G x G and verify subgroup closure."""
    n = base.order
    if n * n > budget:
        raise BudgetExceededError(
            f"|GxG| = {n * n} exceeds budget {budget} for the closure check"
        )
    ambient = product_group(base, base)
    diag_pts = []
    anti_pts = []
    for g in base.elements(budget=budget):
        diag_pts.append(GroupElement._trusted(ambient, g.coords + g.coords))
        anti_pts.append(GroupElement._trusted(ambient, g.coords + (-g).coords))
    diagonal = PointSet(ambient, diag_pts)
    antidiagonal = PointSet(ambient, anti_pts)
    for name, sub in (("diagonal", diagonal), ("antidiagonal", antidiagonal)):
        members = {p.coords for p in sub.points}
        if (0,) * len(ambient.orders) not in members:
            raise AssertionError(f"{name} misses the identity")
        for x in sub.points:
            if (-x).coords not in members:
                raise AssertionError(f"{name} is not closed under negation")
            for y in sub.points:
                if (x + y).coords not in members:
                    raise AssertionError(f"{name} is not closed under addition")
    return DiagonalPair(base=base, ambient=ambient, diagonal=diagonal, antidiagonal=antidiagonal)


def _infer_base(ambient: GroupSpec) -> GroupSpec:
    d2 = len(ambient.orders)
    if d2 % 2:
        raise ValueError("ambient group is not a product of two equal factors")
    d = d2 // 2
    if ambient.orders[:d] != ambient.orders[d:]:
        raise ValueError(
            f"ambient factors {ambient.orders} are not of the form G x G"
        )
    return GroupSpec(ambient.orders[:d])


@dataclass(frozen=True)
class MultisetReport:
    """Result of the sum-multiset test, with the full multiplicity table."""

    ok: bool
    multiplicities: tuple[int, ...]
    first_defect: tuple[GroupElement, int] | None


def sum_multiset_check(P: PointSet, base: GroupSpec | None = None) -> MultisetReport:
    """Does {a + b : (a, b) in P} cover the base group exactly once?

    Requires |P| = |G|; the ambient of P must be G x G. A failure names the
    first element of G (in enumeration order) that no pair sums to.
    """
    if base is None:
        base = _infer_base(P.group)
    elif P.group.orders != base.orders + base.orders:
        raise ValueError("P does not live in base x base")
    n = base.order
    if len(P) != n:
        raise ValueError(f"|P| = {len(P)} but |G| = {n}")
    coords = [p.coords for p in P.points]
    table = _sum_table(base, zip(coords, coords), len(base.orders))
    r = _first_zero(table)
    return MultisetReport(
        ok=r is None,
        multiplicities=tuple(table),
        first_defect=None if r is None else (base.element_at(r), 0),
    )


@dataclass(frozen=True)
class DiagonalCheck:
    """Both routes to diagonal spectrality of P, plus their agreement.

    ``spectral`` is None when the pairwise route was skipped because it would
    exceed the pair budget (the verdict is then carried by ``multiset`` alone
    and ``shortcut`` is set).
    """

    spectral: bool | None
    multiset: bool
    agree: bool | None
    shortcut: bool
    multiset_report: MultisetReport
    spectral_detail: str = ""


def _pairwise_cost(base: GroupSpec, points: int) -> int:
    """Character evaluations of the pairwise route: diagonal pairs times points."""
    n = base.order
    return n * (n - 1) // 2 * points


def check_diagonal_spectral(
    P: PointSet,
    pair: DiagonalPair | None = None,
    pair_budget: int = DEFAULT_PAIR_OPS,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> DiagonalCheck:
    """Evaluate both sides of the diagonal criterion independently.

    Side (a): full pairwise-orthogonality verification of (P, D).
    Side (b): the sum-multiset test. The two must always agree.
    """
    base = pair.base if pair is not None else _infer_base(P.group)
    report = sum_multiset_check(P, base)
    pairwise_cost = _pairwise_cost(base, len(P))
    if pairwise_cost > pair_budget:
        return DiagonalCheck(
            spectral=None,
            multiset=report.ok,
            agree=None,
            shortcut=True,
            multiset_report=report,
            spectral_detail=(
                f"pairwise route skipped: {pairwise_cost} character evaluations "
                f"exceed budget {pair_budget}"
            ),
        )
    if pair is None:
        pair = diagonal_subgroup(base, budget=enum_budget)
    res = verify_spectral_pair(P, pair.diagonal)
    spectral_ok = isinstance(res, SpectrumCertificate)
    return DiagonalCheck(
        spectral=spectral_ok,
        multiset=report.ok,
        agree=spectral_ok == report.ok,
        shortcut=False,
        multiset_report=report,
        spectral_detail="" if spectral_ok else res.detail,
    )


@dataclass(frozen=True)
class ProductDiagonalResult:
    """Tiling verdict for (A, B) next to diagonal spectrality of A x B."""

    tiling: TilingCertificate | TilingFailure
    multiset: MultisetReport
    agree: bool
    product_set: PointSet

    @property
    def tiling_ok(self) -> bool:
        return self.tiling.ok

    @property
    def spectral_ok(self) -> bool:
        return self.multiset.ok


def product_with_diagonal(A: PointSet, B: PointSet) -> ProductDiagonalResult:
    """Run verify_tiling(A, B) and the multiset test on A x B; compare.

    Requires |A| * |B| = |G|; the two verdicts are expected to agree always.
    """
    if A.group != B.group:
        raise ValueError("A and B live in different groups")
    spec = A.group
    if len(A) * len(B) != spec.order:
        raise ValueError(
            f"|A|*|B| = {len(A)}*{len(B)} != |G| = {spec.order}"
        )
    tiling = verify_tiling(A, B)
    prod = product_group(spec, spec)
    P = product_point_set(A, B, prod)
    report = sum_multiset_check(P, spec)
    return ProductDiagonalResult(
        tiling=tiling,
        multiset=report,
        agree=tiling.ok == report.ok,
        product_set=P,
    )


# ---------------------------------------------------------------------------
# Agreement harness


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def count_product_splits(spec: GroupSpec) -> int:
    """Number of (A, B) pairs with |A| * |B| = |G|."""
    n = spec.order
    return sum(math.comb(n, a) * math.comb(n, n // a) for a in _divisors(n))


def iter_product_splits(spec: GroupSpec) -> Iterator[tuple[PointSet, PointSet]]:
    """All (A, B) pairs with |A| * |B| = |G|, in deterministic order."""
    n = spec.order
    elems = tuple(spec.elements())
    subsets: dict[int, list[PointSet]] = {}
    for a in _divisors(spec.order):
        for size in (a, n // a):
            if size not in subsets:
                subsets[size] = [
                    PointSet._from_sorted(spec, combo)
                    for combo in combinations(elems, size)
                ]
    for a in _divisors(n):
        for A in subsets[a]:
            for B in subsets[n // a]:
                yield A, B


@dataclass(frozen=True)
class HarnessReport:
    """Outcome of the candidate/split agreement sweep."""

    spec: GroupSpec
    mode: str
    checked: int
    split_mode: str
    splits: int
    disagreements: int
    lines: tuple[str, ...]
    seed: int
    budget: int

    def render(self) -> str:
        out = [
            f"harness group={self.spec.spec_string()} mode={self.mode} "
            f"seed={self.seed} budget={self.budget}",
            f"splits={self.splits} split-mode={self.split_mode}",
        ]
        out.extend(self.lines)
        out.append(f"checked={self.checked} disagreements={self.disagreements}")
        return "\n".join(out)


def _check_split(A: PointSet, B: PointSet) -> str | None:
    v = product_with_diagonal(A, B)
    if not v.agree:
        return (
            f"disagree kind=split A={format_point_set(A)} B={format_point_set(B)} "
            f"tiling={v.tiling_ok} product-spectral={v.spectral_ok}"
        )
    return None


def _pairing_exponents(base: GroupSpec) -> np.ndarray:
    """chi[k, x] = <h, g_x> mod L for h of rank k + 1: the nonzero characters."""
    coords = _coords_of(base, np.arange(base.order))
    return coords[1:] * base._char_weights @ coords.T % base.exponent


def _multiset_verdicts(sums: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Table route: does row i of rank(a_ij + b_ij), read from ``sums``, hit every rank?"""
    rows, n = a.shape
    cells = sums[a, b] + np.arange(0, rows * n, n)[:, None]
    return np.bincount(cells.ravel(), minlength=rows * n).reshape(rows, n).all(axis=1)


def _character_verdicts(chi: np.ndarray, L: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Character route: does sum_j zeta_L^(<h, a_ij> + <h, b_ij>) vanish at every h of ``chi``?"""
    exps = (chi[:, a] + chi[:, b]) % L  # (h, row, point)
    vanish = _sums_vanish(L, exps.reshape(-1, a.shape[1]))
    return vanish.reshape(len(chi), len(a)).all(axis=0)


def _candidate_verdicts(base: GroupSpec, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(spectral, multiset): both routes to the diagonal criterion, per row of ``ranks``.

    Row i holds the ambient ranks of a candidate P = {(a_ij, b_ij)} in
    G x G, split into the base ranks a and b. The table route counts
    rank(a_ij + b_ij) and passes iff no cell is 0, as
    ``sum_multiset_check`` does. The character route takes the exponents
    <h, a_ij> + <h, b_ij> at every nonzero h, the differences (h, h) of the
    diagonal that ``verify_spectral_pair(P, D)`` tests, and passes iff every
    histogram vanishes. Neither reads the other's table.
    """
    n = base.order
    sums = _translate_ranks(base, PointSet.from_ranks(base, range(n)))
    chi = _pairing_exponents(base)
    spectral = np.empty(len(ranks), dtype=bool)
    multiset = np.empty(len(ranks), dtype=bool)
    # Blocks of at most _HISTOGRAM_ENTRIES exponents, and as many histogram cells.
    rows = max(1, _HISTOGRAM_ENTRIES // (max(1, n - 1) * n))
    for i in range(0, len(ranks), rows):
        a, b = np.divmod(ranks[i : i + rows].astype(np.intp), n)
        multiset[i : i + rows] = _multiset_verdicts(sums, a, b)
        spectral[i : i + rows] = _character_verdicts(chi, base.exponent, a, b)
    return spectral, multiset


def _candidate_chunk_worker(args: tuple[tuple[int, ...], np.ndarray, int]) -> tuple[int, list[str]]:
    orders, chunk, pair_budget = args
    base = GroupSpec(orders)
    if _pairwise_cost(base, base.order) > pair_budget:  # check_diagonal_spectral's shortcut
        return len(chunk), []
    spectral, multiset = _candidate_verdicts(base, chunk)
    ambient = product_group(base, base)
    lines = []
    for k in np.flatnonzero(spectral != multiset):
        P = PointSet.from_ranks(ambient, chunk[k].tolist())
        lines.append(
            f"disagree kind=candidate P={format_point_set(P)} "
            f"spectral={spectral[k]} multiset={multiset[k]}"
        )
    return len(chunk), lines


def _split_chunk_worker(args: tuple[tuple[int, ...], list[tuple[tuple[int, ...], tuple[int, ...]]]]) -> tuple[int, list[str]]:
    orders, chunk = args
    spec = GroupSpec(orders)
    elements = tuple(spec.elements())
    lines = []
    for ranks_a, ranks_b in chunk:
        A = PointSet._from_sorted(spec, tuple([elements[r] for r in ranks_a]))
        B = PointSet._from_sorted(spec, tuple([elements[r] for r in ranks_b]))
        line = _check_split(A, B)
        if line:
            lines.append(line)
    return len(chunk), lines


def _run_chunked(worker, payloads: list, threads: int) -> tuple[int, list[str]]:
    if threads <= 1 or len(payloads) <= 1:
        checked, lines = 0, []
        for payload in payloads:
            c, ls = worker(payload)
            checked += c
            lines.extend(ls)
        return checked, lines
    import multiprocessing

    with multiprocessing.Pool(processes=min(threads, len(payloads))) as pool:
        results = pool.map(worker, payloads)
    checked, lines = 0, []
    for c, ls in results:
        checked += c
        lines.extend(ls)
    return checked, lines


def _chunks(items: list | np.ndarray, pieces: int) -> list:
    if pieces <= 1:
        return [items]
    size = max(1, (len(items) + pieces - 1) // pieces)
    return [items[i : i + size] for i in range(0, len(items), size)]


def run_agreement_harness(
    spec: GroupSpec,
    budget: int = DEFAULT_HARNESS_BUDGET,
    seed: int = 0,
    threads: int = 1,
    pair_budget: int = DEFAULT_PAIR_OPS,
) -> HarnessReport:
    """Sweep candidate P sets and (A, B) splits, reporting any disagreement.

    Each stream runs exhaustively when its whole space fits the budget, and
    otherwise checks ``budget`` seeded uniform samples. ``checked`` counts the
    candidate P sets; splits are reported on their own line and both streams
    feed ``disagreements``. ``threads`` must be at least 1; it is clamped to
    the CPU count, and no more workers start than there are chunks.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    threads = min(threads, os.cpu_count() or 1)
    n = spec.order
    rng = random.Random(seed)
    pair = diagonal_subgroup(spec)
    n2 = pair.ambient.order

    total_p = math.comb(n2, n)
    if total_p <= budget:
        p_mode = "exhaustive"
        rows, drawn = total_p, combinations(range(n2), n)
    else:
        p_mode = "sampled"
        rows, drawn = budget, (sorted(rng.sample(range(n2), n)) for _ in range(budget))
    # One row of ambient ranks per candidate, in the narrowest dtype that holds them.
    candidates = np.fromiter(
        chain.from_iterable(drawn), dtype=np.min_scalar_type(n2 - 1), count=rows * n
    ).reshape(rows, n)

    payloads = [
        (spec.orders, chunk, pair_budget) for chunk in _chunks(candidates, threads)
    ]
    checked, p_lines = _run_chunked(_candidate_chunk_worker, payloads, threads)

    total_s = count_product_splits(spec)
    if total_s <= budget:
        s_mode = "exhaustive"
        split_ranks = [
            (A.ranks(), B.ranks()) for A, B in iter_product_splits(spec)
        ]
    else:
        s_mode = "sampled"
        divs = _divisors(n)
        weights = [math.comb(n, a) * math.comb(n, n // a) for a in divs]
        split_ranks = []
        for _ in range(budget):
            a = rng.choices(divs, weights=weights)[0]
            ra = tuple(sorted(rng.sample(range(n), a)))
            rb = tuple(sorted(rng.sample(range(n), n // a)))
            split_ranks.append((ra, rb))
    s_payloads = [(spec.orders, chunk) for chunk in _chunks(split_ranks, threads)]
    splits, s_lines = _run_chunked(_split_chunk_worker, s_payloads, threads)

    lines = tuple(p_lines + s_lines)
    return HarnessReport(
        spec=spec,
        mode=p_mode,
        checked=checked,
        split_mode=s_mode,
        splits=splits,
        disagreements=len(lines),
        lines=lines,
        seed=seed,
        budget=budget,
    )
