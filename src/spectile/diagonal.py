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
oracle, ``product_with_diagonal`` sets the tiling test of (A, B) against the
zero sets of A and B, and the agreement harness compares two routes to the
verdict on streams of candidates. It checks its candidates by batched numpy
forms of the two routes, whose reference is ``check_diagonal_spectral`` (a
property test holds them to it), and each product split (A, B) as the
candidate A x B, where the table route is the tiling test. The third holds
because ``a + b`` is constant on each antidiagonal coset; the tests check it
against an enumeration of the cosets.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, combinations

import numpy as np

from .cyclotomic import _crt_coordinates, _crt_plan
from .groups import (
    _BLOCK_ENTRIES,
    DEFAULT_ENUM_BUDGET,
    BudgetExceededError,
    GroupElement,
    GroupSpec,
    PointSet,
    format_point_set,
    product_group,
)
from .spectral import (
    _HISTOGRAM_ENTRIES,
    SpectrumCertificate,
    _class_representatives,
    _sums_vanish,
    _vanishing_at,
    verify_spectral_pair,
)
from .tiling import (
    TilingCertificate,
    TilingFailure,
    _first_zero,
    _row_counts,
    verify_tiling,
)

# Cap on character evaluations (distinct differences times points) for the
# full pairwise verification route; beyond it only the multiset route runs.
DEFAULT_PAIR_OPS = 10**7

DEFAULT_HARNESS_BUDGET = 100_000
# Caps on a harness run, both streams: the steps its time follows (3-8 ns each
# on a 2-vCPU VM) and the bytes of its rank arrays. Both admit every group
# below order 272 at the default budget; 2^8 there takes 1.97e10 steps.
MAX_HARNESS_STEPS = 2 * 10**10
MAX_HARNESS_BYTES = 1 << 28
# Entries of a block of sampled rows. Floyd's k steps make a few numpy calls
# per block each, so a large k is call-bound in smaller blocks; the membership
# test's temporary stays within 128 KB.
_DRAW_ENTRIES = 1 << 17


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
    negated = base.encode(-base.decode(ranks) % base.orders)
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
    a, b = np.divmod(P.rank_array[None, :], n)  # rank((a, b)) = rank(a) |G| + rank(b)
    table = _row_counts(base.add(a, b), n)[:, 0].tolist()
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
    spectral_detail: str = ""


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
    # Character evaluations of the pairwise route: distinct differences (g, g) times points.
    pairwise_cost = (base.order - 1) * len(P)
    if pairwise_cost > pair_budget:
        return DiagonalCheck(
            spectral=None,
            multiset=report.ok,
            agree=None,
            shortcut=True,
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
        spectral_detail="" if spectral_ok else res.detail,
    )


@dataclass(frozen=True)
class ProductDiagonalResult:
    """Tiling verdict for (A, B) next to diagonal spectrality of A x B."""

    tiling: TilingCertificate | TilingFailure
    spectral_ok: bool

    @property
    def tiling_ok(self) -> bool:
        return self.tiling.ok

    @property
    def agree(self) -> bool:
        return self.tiling.ok == self.spectral_ok


def _product_spectral(A: PointSet, B: PointSet) -> bool:
    """Is (A x B, D) spectral? By the zero sets of A and B, never a count table.

    For h != 0 the character sum of A x B at (h, h) is the product of the
    sums of A and of B at h, and a product of cyclotomic integers vanishes
    iff a factor does. So, with |A| |B| = |G|, (A x B, D) is spectral iff
    Z(1_A) and Z(1_B) together cover every nonzero element of G. Zero sets
    are unions of Galois classes (``_zero_set_ranks``), so one h per class
    decides. In a group whose table of zero-test coordinates (classes x |G| x phi(L))
    fits ``_BLOCK_ENTRIES``, each set reads it, cached per group, since the
    tests check millions of splits of groups up to order 12. Otherwise
    the smaller set is tested at every class, in blocks, and the larger
    only where the smaller's sum does not vanish.
    """
    spec = A.group
    reps = _class_representatives(spec)
    m, steps = _crt_plan(spec.exponent)
    if len(reps) * spec.order * m * math.prod(p - 1 for p, _ in steps) <= _BLOCK_ENTRIES:
        table = _reduced_characters(spec)
        nonzero = [table[:, S.rank_array].sum(axis=1).any(axis=1) for S in (A, B)]
        return not (nonzero[0] & nonzero[1]).any()
    for S in sorted((A, B), key=len):
        reps = reps[~_vanishing_at(S, reps)]
    return len(reps) == 0


@lru_cache(maxsize=8)
def _reduced_characters(base: GroupSpec) -> np.ndarray:
    """table[k, x]: the zero test's coordinates of zeta_L^<h_k, g_x>, one h_k per Galois class.

    The coordinates are linear in the counts of a sum, and vanish iff the
    sum does, so the sum of 1_S at h_k vanishes iff table[k, S] sums to 0:
    per set, one lookup in place of a histogram and a zero test.
    """
    L = base.exponent
    unit = _crt_coordinates(L, np.eye(L, dtype=np.int64)).T
    table = unit[_pairing_exponents(base)]
    table.flags.writeable = False
    return table


def product_with_diagonal(A: PointSet, B: PointSet) -> ProductDiagonalResult:
    """Run verify_tiling(A, B) and decide spectrality of (A x B, D); compare.

    The tiling verdict reads the count table, the spectral one the exact
    zero test (``_product_spectral``), so the two routes are independent.
    Requires |A| * |B| = |G|; the two verdicts are expected to agree always.
    """
    if A.group != B.group:
        raise ValueError("A and B live in different groups")
    spec = A.group
    if len(A) * len(B) != spec.order:
        raise ValueError(
            f"|A|*|B| = {len(A)}*{len(B)} != |G| = {spec.order}"
        )
    return ProductDiagonalResult(
        tiling=verify_tiling(A, B),
        spectral_ok=_product_spectral(A, B),
    )


# ---------------------------------------------------------------------------
# Agreement harness


def _split_counts(n: int) -> tuple[list[int], list[int]]:
    """The divisors a of n, and for each the number C(n, a) C(n, n/a) of splits with |A| = a."""
    divs = [a for a in range(1, n + 1) if n % a == 0]
    return divs, [math.comb(n, a) * math.comb(n, n // a) for a in divs]


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
    coords = base.decode(np.arange(base.order))
    return coords[_class_representatives(base)] * base._char_weights @ coords.T % base.exponent


def _multiset_verdicts(base: GroupSpec, streams: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    """Table route: does sums[r_ij] = rank(a_ij + b_ij) hit every rank of the base, in row i?"""
    n = base.order
    g = np.arange(n)
    step = max(1, _BLOCK_ENTRIES // n)  # the addition table, in narrow row blocks
    sums = np.concatenate([base.add(g[i : i + step, None], g).astype(np.min_scalar_type(n - 1))
                           for i in range(0, n, step)]).ravel()
    outs = [np.empty(len(ranks), dtype=bool) for ranks in streams]
    rows = max(1, _HISTOGRAM_ENTRIES // n)
    for ranks, out in zip(streams, outs):
        for i in range(0, len(ranks), rows):
            out[i : i + rows] = _row_counts(sums.take(ranks[i : i + rows]), n).all(axis=0)
    return outs


def _character_verdicts(base: GroupSpec, streams: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    """Character route: does sum_j zeta_L^pair[k, r_ij] vanish at every class k?

    pair[k, a |G| + b] = <h_k, a> + <h_k, b> mod L, from ``_pairing_exponents``
    alone, in chunks of classes of at most max(|G|^2, ``_BLOCK_ENTRIES``) entries.
    """
    chi, L = _pairing_exponents(base), base.exponent
    classes, n = chi.shape
    outs = [np.ones(len(ranks), dtype=bool) for ranks in streams]
    step = max(1, _BLOCK_ENTRIES // (n * n))
    for k in range(0, classes, step):
        c = chi[k : k + step]
        rows = max(1, _HISTOGRAM_ENTRIES // (len(c) * n))
        # Narrow, yet wide enough for 2L and the offsets of _sums_vanish's histograms.
        c = c.astype(np.min_scalar_type(max(2, len(c) * rows) * L))
        pair = (c[:, :, None] + c[:, None, :]).reshape(len(c), n * n)
        pair %= L
        for ranks, out in zip(streams, outs):
            for i in range(0, len(ranks), rows):
                exps = np.take(pair, ranks[i : i + rows], axis=1).reshape(-1, n)  # (h, row, point)
                out[i : i + rows] &= _sums_vanish(L, exps).reshape(len(c), -1).all(axis=0)
    return outs


def _candidate_verdicts(base: GroupSpec, *streams: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """(spectral, multiset) per stream: both routes to the diagonal criterion, per row.

    Row i of a stream holds the ranks r_ij = rank(a_ij) |G| + rank(b_ij) of a
    candidate P = {(a_ij, b_ij)} in G x G, and each route gathers from its own
    table indexed by r: rank(a_ij + b_ij), to pass iff no count is 0 (as
    ``sum_multiset_check``), or <h, a_ij> + <h, b_ij> at one nonzero h per
    Galois class, to pass iff every histogram vanishes (as the (h, h) of
    ``verify_spectral_pair(P, D)``). An n-point row costs n gathers and
    counts, then per class n gathers and L cells; a call tabulates
    (1 + classes) |G|^2 entries once for all its streams.
    """
    return list(zip(_character_verdicts(base, streams), _multiset_verdicts(base, streams)))


def _all_subsets(m: int, k: int) -> np.ndarray:
    """All k-subsets of range(m), each ascending, in lexicographic order and the narrowest dtype."""
    return np.fromiter(
        chain.from_iterable(combinations(range(m), k)),
        dtype=np.min_scalar_type(m - 1), count=math.comb(m, k) * k,
    ).reshape(-1, k)


def _random_below(rng: random.Random, bound: int, size: int) -> np.ndarray:
    """``size`` uniform integers in [0, bound), for a bound of at most 2^64.

    Exact, by rejection as in ``random.randrange``: each is the top
    bit_length(bound - 1) bits of the narrowest 8-, 16-, 32- or 64-bit word
    that holds them, from ``rng``, and a value that reaches ``bound`` is
    dropped for the next word's. No modulo, no floats.
    """
    bits = (bound - 1).bit_length()
    width = next(w for w in (8, 16, 32, 64) if bits <= w)
    out = np.zeros(size, dtype=f"u{width // 8}")
    done = 0
    while bits and done < size:
        # More than half of the words are kept; the margin makes one pass the rule.
        want = (size - done) * (1 << bits) // bound + 64
        words = np.frombuffer(rng.randbytes(want * width // 8), f"<u{width // 8}") >> (width - bits)
        kept = words[words <= bound - 1][: size - done]
        out[done : done + len(kept)] = kept
        done += len(kept)
    return out


def _sorted_subsets(rng: random.Random, rows: int, k: int, m: int) -> np.ndarray:
    """``rows`` uniform k-subsets of range(m), each ascending, in the narrowest dtype.

    Floyd's algorithm (Bentley & Floyd, CACM 30, 1987) run on all rows of
    a block at once: for j = m - k, ..., m - 1 draw t in [0, j], and take t
    unless the row already holds it, else j. A block of at most
    ``_DRAW_ENTRIES`` entries is held column by column, so that the test
    for t reduces across rows, not along a row of at most k entries.
    """
    out = np.empty((rows, k), dtype=np.min_scalar_type(m - 1))
    step = max(1, _DRAW_ENTRIES // k)
    cols = np.empty((k, min(step, rows)), dtype=out.dtype)
    for i in range(0, rows, step):
        block = cols[:, : min(step, rows - i)]
        for c, j in enumerate(range(m - k, m)):
            t = _random_below(rng, j + 1, block.shape[1])
            block[c] = np.where((block[:c] == t).any(axis=0), j, t)
        out[i : i + step] = block.T
    out.sort(axis=1)
    return out


def _sampled_splits(rng: random.Random, rows: int, n: int) -> np.ndarray:
    """``rows`` uniform splits (A, B) of a group of order n, each as the row of A x B.

    A row draws |A| = a with weight C(n, a) C(n, n/a), its number of
    splits, exactly: one ``randrange`` over their sum, which for n = 64
    exceeds 2^64. Then the rows of each a draw A, then B, as subsets.
    """
    divs, counts = _split_counts(n)
    cum = list(accumulate(counts))
    which = np.fromiter(
        (bisect_right(cum, rng.randrange(cum[-1])) for _ in range(rows)),
        dtype=np.min_scalar_type(len(divs)), count=rows,
    )
    out = np.empty((rows, n), dtype=np.min_scalar_type(n * n - 1))
    for i, a in enumerate(divs):
        at = np.flatnonzero(which == i)
        A = _sorted_subsets(rng, len(at), a, n).astype(out.dtype)
        B = _sorted_subsets(rng, len(at), n // a, n)
        # The row of A x B: rank((x, y)) = rank(x) |G| + rank(y), ascending.
        out[at] = (A[:, :, None] * n + B[:, None, :]).reshape(len(at), n)
    return out


def run_agreement_harness(
    spec: GroupSpec,
    budget: int = DEFAULT_HARNESS_BUDGET,
    seed: int = 0,
) -> HarnessReport:
    """Sweep candidate P sets and (A, B) splits, reporting any disagreement.

    Each stream runs exhaustively when its whole space fits the budget, and
    otherwise checks ``budget`` uniform samples drawn from ``seed`` in numpy
    blocks: first all candidates, then all splits. A split (A, B) is
    checked as the candidate A x B, whose table route reads as the tiling
    verdict and whose character route as the spectrality of (A x B, D).
    Over ``MAX_HARNESS_STEPS`` or ``MAX_HARNESS_BYTES``, or with |G|^2 over
    the enumeration budget, it raises ``BudgetExceededError`` before drawing.
    """
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if budget == 0:
        raise BudgetExceededError("harness budget 0 checks no candidate and no split")
    n = spec.order
    rng = random.Random(seed)
    ambient = product_group(spec, spec)
    n2 = ambient.order
    if n2 > DEFAULT_ENUM_BUDGET:
        raise BudgetExceededError(f"|GxG| = {n2} exceeds budget {DEFAULT_ENUM_BUDGET}")
    total_p = math.comb(n2, n)
    divs, counts = _split_counts(n)
    total_s = sum(counts)
    p_mode, checked = ("exhaustive", total_p) if total_p <= budget else ("sampled", budget)
    s_mode, splits = ("exhaustive", total_s) if total_s <= budget else ("sampled", budget)
    # Per row, n sums and n exponents per class gathered; per drawn row, Floyd's
    # n^2 / 2 comparisons; per call, (1 + classes) |G|^2 entries tabulated.
    classes, rows = len(_class_representatives(spec)), checked + splits
    drawn = checked * (p_mode == "sampled") + splits * (s_mode == "sampled")
    steps = (rows + n) * n * (1 + classes) + drawn * n * n // 2
    held = rows * n * np.min_scalar_type(n2 - 1).itemsize
    if steps > MAX_HARNESS_STEPS or held > MAX_HARNESS_BYTES:
        raise BudgetExceededError(f"harness: {steps} steps and {held} bytes of ranks, "
                                  f"caps {MAX_HARNESS_STEPS} and {MAX_HARNESS_BYTES}")

    if p_mode == "exhaustive":
        candidates = _all_subsets(n2, n)
    else:
        candidates = _sorted_subsets(rng, budget, n, n2)
    if s_mode == "exhaustive":
        # The rows of A x B for every a-subset A and (n/a)-subset B, B
        # fastest: rank((x, y)) = rank(x) |G| + rank(y), ascending.
        dtype = np.min_scalar_type(n2 - 1)
        products = np.concatenate([
            (
                _all_subsets(n, a).astype(dtype)[:, None, :, None] * n
                + _all_subsets(n, n // a)[None, :, None, :]
            ).reshape(-1, n)
            for a in divs
        ])
    else:
        products = _sampled_splits(rng, budget, n)
    # One call, so each route tabulates once for both streams.
    (spectral, multiset), (product, tiling) = _candidate_verdicts(spec, candidates, products)
    lines = []
    for k in np.flatnonzero(spectral != multiset):
        P = PointSet.from_ranks(ambient, candidates[k])
        lines.append(
            f"disagree kind=candidate P={format_point_set(P)} "
            f"spectral={spectral[k]} multiset={multiset[k]}"
        )
    for k in np.flatnonzero(product != tiling):
        A = PointSet.from_ranks(spec, products[k] // n)
        B = PointSet.from_ranks(spec, products[k] % n)
        lines.append(
            f"disagree kind=split A={format_point_set(A)} B={format_point_set(B)} "
            f"tiling={tiling[k]} product-spectral={product[k]}"
        )
    return HarnessReport(
        spec=spec,
        mode=p_mode,
        checked=checked,
        split_mode=s_mode,
        splits=splits,
        disagreements=len(lines),
        lines=tuple(lines),
        seed=seed,
        budget=budget,
    )
