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

import functools
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
    _sums_vanish,
    verify_spectral_pair,
)
from .tiling import (
    TilingCertificate,
    TilingFailure,
    _count_table,
    _first_zero,
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
    ranks = np.arange(n)
    negated = [(-g).rank() for g in base.elements(budget=budget)]
    # rank((g, h)) = rank(g) |G| + rank(h)
    diagonal = PointSet.from_ranks(ambient, ranks * n + ranks)
    antidiagonal = PointSet.from_ranks(ambient, ranks * n + negated)
    for name, sub in (("diagonal", diagonal), ("antidiagonal", antidiagonal)):
        # A finite set that holds 0 and is closed under addition is a subgroup.
        m = sub.rank_array
        if m[0] != 0 or not all(np.isin(ambient.add(x, m), m).all() for x in m):
            raise AssertionError(f"{name} is not a subgroup")
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
    a, b = np.divmod(P.rank_array[:, None], n)  # rank((a, b)) = rank(a) |G| + rank(b)
    table = _count_table(base, a, b).tolist()
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


def _split_ranks(spec: GroupSpec) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The ranks of all (A, B) pairs with |A| * |B| = |G|, in deterministic order."""
    n = spec.order
    for a in _divisors(n):
        for ranks_a in combinations(range(n), a):
            for ranks_b in combinations(range(n), n // a):
                yield ranks_a, ranks_b


def iter_product_splits(spec: GroupSpec) -> Iterator[tuple[PointSet, PointSet]]:
    """All (A, B) pairs with |A| * |B| = |G|, in deterministic order."""
    as_set = functools.cache(functools.partial(PointSet.from_ranks, spec))
    for ranks_a, ranks_b in _split_ranks(spec):
        yield as_set(ranks_a), as_set(ranks_b)


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


def _pairing_exponents(base: GroupSpec) -> np.ndarray:
    """chi[k, x] = <h, g_x> mod L for h of rank k + 1: the nonzero characters."""
    coords = base.decode(np.arange(base.order))
    return coords[1:] * base._char_weights @ coords.T % base.exponent


def _multiset_verdicts(base: GroupSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Table route: does rank(a_ij + b_ij) hit every rank of the base, in each row i?

    The count table over Z_rows x G holds the table of row i at rank i |G|,
    in the first coordinate, which a_ij carries as an offset and b_ij leaves.
    """
    rows, n = a.shape
    stacked = GroupSpec((rows,) + base.orders)
    table = _count_table(stacked, a + np.arange(0, rows * n, n)[:, None], b)
    return table.reshape(rows, n).all(axis=1)


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
    chi = _pairing_exponents(base)
    spectral = np.empty(len(ranks), dtype=bool)
    multiset = np.empty(len(ranks), dtype=bool)
    # Blocks of at most _HISTOGRAM_ENTRIES exponents, and as many histogram cells.
    rows = max(1, _HISTOGRAM_ENTRIES // (max(1, n - 1) * n))
    for i in range(0, len(ranks), rows):
        a, b = np.divmod(ranks[i : i + rows].astype(np.intp), n)
        multiset[i : i + rows] = _multiset_verdicts(base, a, b)
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
        P = PointSet.from_ranks(ambient, chunk[k])
        lines.append(
            f"disagree kind=candidate P={format_point_set(P)} "
            f"spectral={spectral[k]} multiset={multiset[k]}"
        )
    return len(chunk), lines


def _split_chunk_worker(
    args: tuple[tuple[int, ...], list[tuple[tuple[int, ...], tuple[int, ...]]]],
) -> tuple[int, list[str]]:
    orders, chunk = args
    as_set = functools.cache(functools.partial(PointSet.from_ranks, GroupSpec(orders)))
    lines = []
    for ranks_a, ranks_b in chunk:
        A, B = as_set(ranks_a), as_set(ranks_b)
        v = product_with_diagonal(A, B)
        if not v.agree:
            lines.append(
                f"disagree kind=split A={format_point_set(A)} B={format_point_set(B)} "
                f"tiling={v.tiling_ok} product-spectral={v.spectral_ok}"
            )
    return len(chunk), lines


def _run_chunked(worker, payloads: list, threads: int) -> tuple[int, list[str]]:
    if threads <= 1 or len(payloads) <= 1:
        results = [worker(payload) for payload in payloads]
    else:
        import multiprocessing

        with multiprocessing.Pool(processes=min(threads, len(payloads))) as pool:
            results = pool.map(worker, payloads)
    return sum(c for c, _ in results), [line for _, ls in results for line in ls]


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
        split_ranks = list(_split_ranks(spec))
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
