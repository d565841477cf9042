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
test holds them to it), and each product split (A, B) as the candidate
A x B, where the table route is the tiling test. The third holds because
``a + b`` is constant on each antidiagonal coset; the tests check it
against an enumeration of the cosets.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Iterator

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
    _galois_labels,
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


def _split_counts(n: int) -> tuple[list[int], list[int]]:
    """The divisors a of n, and for each the number C(n, a) C(n, n/a) of splits with |A| = a."""
    divs = [a for a in range(1, n + 1) if n % a == 0]
    return divs, [math.comb(n, a) * math.comb(n, n // a) for a in divs]


def count_product_splits(spec: GroupSpec) -> int:
    """Number of (A, B) pairs with |A| * |B| = |G|."""
    return sum(_split_counts(spec.order)[1])


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
    """chi[k, x] = <h_k, g_x> mod L, for the least nonzero h_k of each Galois class.

    For u coprime to L, sigma_u maps the sum at (h, h) to the sum at
    (u h, u h), so one h per class decides them all, as in ``_zero_set_ranks``.
    """
    label = _galois_labels(base)
    reps = np.flatnonzero(label == np.arange(base.order))[1:]  # 0 is a class of its own
    coords = base.decode(np.arange(base.order))
    return coords[reps] * base._char_weights @ coords.T % base.exponent


def _multiset_verdicts(stacked: GroupSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Table route: does rank(a_ij + b_ij) hit every rank of the base, in each row i?

    ``stacked`` is Z_m x G with m at least the number of rows. The count
    table over it holds the table of row i at rank i |G|, in the first
    coordinate, which a_ij carries as an offset and b_ij leaves.
    """
    rows, n = a.shape
    table = _count_table(stacked, a + np.arange(0, rows * n, n)[:, None], b)
    return table[: rows * n].reshape(rows, n).all(axis=1)


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
    <h, a_ij> + <h, b_ij> at one nonzero h per Galois class, the
    differences (h, h) of the diagonal that ``verify_spectral_pair(P, D)``
    tests, and passes iff every histogram vanishes. Neither reads the
    other's table. For the row of a product A x B, the table route is the
    tiling test of (A, B) and the character route the spectrality of
    (A x B, D).
    """
    n = base.order
    chi = _pairing_exponents(base)
    spectral = np.empty(len(ranks), dtype=bool)
    multiset = np.empty(len(ranks), dtype=bool)
    # Blocks of at most _HISTOGRAM_ENTRIES exponents, and as many histogram cells.
    rows = max(1, _HISTOGRAM_ENTRIES // (max(1, len(chi)) * n))
    stacked = GroupSpec((rows,) + base.orders)
    for i in range(0, len(ranks), rows):
        a, b = np.divmod(ranks[i : i + rows].astype(np.intp), n)
        multiset[i : i + rows] = _multiset_verdicts(stacked, a, b)
        spectral[i : i + rows] = _character_verdicts(chi, base.exponent, a, b)
    return spectral, multiset


def _chunks(items: np.ndarray, pieces: int) -> list[np.ndarray]:
    if pieces <= 1:
        return [items]
    size = max(1, (len(items) + pieces - 1) // pieces)
    return [items[i : i + size] for i in range(0, len(items), size)]


def _verdicts(base: GroupSpec, rows: np.ndarray, threads: int) -> tuple[np.ndarray, np.ndarray]:
    """``_candidate_verdicts`` of ``rows``, in one chunk per worker process."""
    chunks = _chunks(rows, threads)
    if threads <= 1 or len(chunks) <= 1:
        results = [_candidate_verdicts(base, chunk) for chunk in chunks]
    else:
        import multiprocessing

        with multiprocessing.Pool(processes=min(threads, len(chunks))) as pool:
            results = pool.starmap(_candidate_verdicts, [(base, chunk) for chunk in chunks])
    spectral, multiset = zip(*results)
    return np.concatenate(spectral), np.concatenate(multiset)


def _rank_rows(rows: Iterator[Iterable[int]], count: int, width: int, bound: int) -> np.ndarray:
    """``count`` rows of ``width`` ranks below ``bound``, in the narrowest dtype that holds them."""
    return np.fromiter(
        chain.from_iterable(rows), dtype=np.min_scalar_type(bound - 1), count=count * width
    ).reshape(count, width)


def run_agreement_harness(
    spec: GroupSpec,
    budget: int = DEFAULT_HARNESS_BUDGET,
    seed: int = 0,
    threads: int = 1,
    pair_budget: int = DEFAULT_PAIR_OPS,
) -> HarnessReport:
    """Sweep candidate P sets and (A, B) splits, reporting any disagreement.

    Each stream runs exhaustively when its whole space fits the budget, and
    otherwise checks ``budget`` seeded uniform samples: first all
    candidates, then all splits. A split (A, B) is checked as the candidate
    A x B, whose table route reads as the tiling verdict and whose character
    route as the spectrality of (A x B, D). When the pairwise route of
    ``check_diagonal_spectral`` would exceed ``pair_budget``, neither stream
    is checked. ``checked`` counts the candidate P sets; splits are reported
    on their own line and both streams feed ``disagreements``. ``threads``
    must be at least 1; it is clamped to the CPU count, and no more workers
    start than there are chunks.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if budget == 0:
        raise BudgetExceededError("harness budget 0 checks no candidate and no split")
    threads = min(threads, os.cpu_count() or 1)
    n = spec.order
    rng = random.Random(seed)
    pair = diagonal_subgroup(spec)
    n2 = pair.ambient.order

    total_p = math.comb(n2, n)
    if total_p <= budget:
        p_mode, count, drawn = "exhaustive", total_p, combinations(range(n2), n)
    else:
        p_mode, count = "sampled", budget
        drawn = (sorted(rng.sample(range(n2), n)) for _ in range(budget))
    candidates = _rank_rows(drawn, count, n, n2)

    divs, counts = _split_counts(n)
    if sum(counts) <= budget:
        s_mode, count = "exhaustive", sum(counts)
        splits = (
            (ra, rb)
            for a in divs
            for ra in combinations(range(n), a)
            for rb in combinations(range(n), n // a)
        )
    else:
        s_mode, count = "sampled", budget

        def draw() -> tuple[list[int], list[int]]:
            a = rng.choices(divs, weights=counts)[0]
            return sorted(rng.sample(range(n), a)), sorted(rng.sample(range(n), n // a))

        splits = (draw() for _ in range(budget))
    # The row of A x B: rank((a, b)) = rank(a) |G| + rank(b), ascending.
    products = _rank_rows(
        ((x * n + y for x in ra for y in rb) for ra, rb in splits), count, n, n2
    )

    lines = []
    if _pairwise_cost(spec, n) <= pair_budget:  # else check_diagonal_spectral's shortcut
        spectral, multiset = _verdicts(spec, candidates, threads)
        for k in np.flatnonzero(spectral != multiset):
            P = PointSet.from_ranks(pair.ambient, candidates[k])
            lines.append(
                f"disagree kind=candidate P={format_point_set(P)} "
                f"spectral={spectral[k]} multiset={multiset[k]}"
            )
        spectral, tiling = _verdicts(spec, products, threads)
        for k in np.flatnonzero(spectral != tiling):
            A = PointSet.from_ranks(spec, products[k] // n)
            B = PointSet.from_ranks(spec, products[k] % n)
            lines.append(
                f"disagree kind=split A={format_point_set(A)} B={format_point_set(B)} "
                f"tiling={tiling[k]} product-spectral={spectral[k]}"
            )
    return HarnessReport(
        spec=spec,
        mode=p_mode,
        checked=len(candidates),
        split_mode=s_mode,
        splits=len(products),
        disagreements=len(lines),
        lines=tuple(lines),
        seed=seed,
        budget=budget,
    )
