"""Spectral-pair verification and spectrum search in a finite abelian group.

The dual group is identified with the group itself through the coordinatewise
pairing: the character attached to ``h`` evaluates at ``g`` as
``zeta_L ^ (sum_i (L/n_i) h_i g_i)`` with ``L`` the group exponent. A set is
spectral iff it admits as many characters as points whose restrictions to the
set are pairwise orthogonal; orthogonality of two characters reduces to the
vanishing of one exact character sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import mod, sub
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .cyclotomic import CyclotomicSum, _batch_is_zero, _reduction_table
from .groups import _BLOCK_ENTRIES, DEFAULT_ENUM_BUDGET, GroupElement, GroupSpec, PointSet

if TYPE_CHECKING:
    from .tiling import TilingCertificate

# From this many pairs on, verify_spectral_pair walks the pairs in numpy row
# blocks and tests their distinct differences in batches.
_WALK_MIN_PAIRS = 256

DEFAULT_SEARCH_NODES = 2_000_000
MAX_SEARCH_ORDER = 4096

# Histogram blocks are smaller, since bincount copies their exponents to
# int64: at 2^15 entries the zero sets of 20-point sets in Z_2^12 raised
# the peak RSS of find-spectrum by 0.2 MB.
_HISTOGRAM_ENTRIES = 1 << 13


def char_sum_on_set(S: PointSet, h: GroupElement) -> CyclotomicSum:
    """The exact sum of chi_h over S, as a histogram of root exponents."""
    if h.group != S.group:
        raise ValueError("character and set live in different groups")
    spec = S.group
    L = spec.exponent
    wh = tuple(w * c % L for w, c in zip(spec._char_weights, h.coords))
    counts = [0] * L
    for p in S.points:
        counts[sum(a * b for a, b in zip(wh, p.coords)) % L] += 1
    return CyclotomicSum(L, counts)


def _sums_vanish(L: int, exps: np.ndarray) -> np.ndarray:
    """Does sum_j zeta_L^exps[k, j] vanish, for each row k? Exponents lie in [0, L).

    One histogram per row, offset per row into one ``bincount``, and one
    ``_batch_is_zero`` for all of them.
    """
    rows = len(exps)
    cells = exps + np.arange(0, rows * L, L, dtype=exps.dtype)[:, None]
    counts = np.bincount(cells.ravel(), minlength=rows * L).reshape(rows, L)
    return _batch_is_zero(L, counts)


def _vanishing_at(S: PointSet, ranks: np.ndarray) -> np.ndarray:
    """Does the character sum over S vanish at h, for the element h of each rank?

    The batched form of ``char_sum_on_set(S, h).is_zero()``. Each block of
    characters sums its exponents with the points factor by factor, takes
    one histogram per character and one ``_batch_is_zero``. Exponents stay
    below d L^2 for d factors: int32 holds that up to 2^31, int64 beyond,
    since the cost bound of the zero test, checked first, keeps L at most
    10^7 (and d is at most 1024).
    """
    spec = S.group
    L = spec.exponent
    _reduction_table(L)  # the zero test's cost bound, before any histogram
    dtype = np.int32 if len(spec.orders) * L * L < 2**31 else np.int64
    points = spec.decode(S.rank_array).T.astype(dtype)
    weights = np.array(spec._char_weights)
    out = np.empty(len(ranks), dtype=bool)
    block = max(1, _HISTOGRAM_ENTRIES // max(len(S), L, len(spec.orders)))
    for i in range(0, len(ranks), block):
        wh = (spec.decode(ranks[i:i + block]) * weights % L).astype(dtype)
        exps = np.zeros((len(wh), len(S)), dtype=dtype)
        term = np.empty_like(exps)
        for w, coords in zip(wh.T, points):
            np.multiply(w[:, None], coords, out=term)
            exps += term
        exps %= L
        out[i:i + block] = _sums_vanish(L, exps)
    return out


@dataclass(frozen=True)
class SpectrumCertificate:
    """A verified spectral pair: every unordered spectrum pair is covered.

    Orthogonality of a pair depends only on its difference, so each distinct
    difference is tested once; ``checked_pairs`` counts the pairs covered.
    """

    set: PointSet
    spectrum: PointSet
    checked_pairs: int
    ok = True


@dataclass(frozen=True)
class SpectralFailure:
    """Why a candidate pair is not spectral; ``detail`` is formatted when read."""

    kind: str  # "cardinality" or "pair"
    sizes: tuple[int, int] | None = None  # |S|, |spectrum|
    pair: tuple[GroupElement, GroupElement] | None = None
    ok = False

    @property
    def detail(self) -> str:
        if self.pair is None:
            return "|S|={} but |spectrum|={}".format(*self.sizes)
        return "characters {!r} and {!r} are not orthogonal on S".format(*self.pair)


@lru_cache(maxsize=8)
def _vanishing_memo(S: PointSet) -> dict[tuple[int, ...], bool]:
    # Does the character sum over S vanish at h? Keyed by the coordinates
    # of h, shared by every verification against the same set.
    return {}


def verify_spectral_pair(
    S: PointSet, spectrum: PointSet
) -> SpectrumCertificate | SpectralFailure:
    """Check |spectrum| = |S| and pairwise orthogonality on S, exhaustively.

    Pairs are walked in ``combinations`` order, and the character sum at
    h1 - h2 is computed only for a difference not seen before with this set
    (verdicts are memoised per set). A failure therefore names the first
    non-orthogonal pair of the full walk. From ``_WALK_MIN_PAIRS`` pairs on,
    in a group within the enumeration budget, ``_first_failing_pair`` takes
    the same walk in numpy and leaves the memo alone.
    """
    spec, orders = S.group, S.group.orders
    if spectrum.group is not spec and spectrum.group != spec:
        raise ValueError("set and spectrum live in different groups")
    size, n = len(spectrum), len(S)
    if not n:
        raise ValueError("empty sets are excluded (counting measure zero)")
    if size != n:
        return SpectralFailure(kind="cardinality", sizes=(n, size))
    pairs = size * (size - 1) // 2
    failing = None
    if pairs >= _WALK_MIN_PAIRS and spec.order <= DEFAULT_ENUM_BUDGET:
        failing = _first_failing_pair(S, spectrum)
    else:
        vanishes = _vanishing_memo(S)
        for h1, h2 in combinations(spectrum.points, 2):
            d = tuple(map(mod, map(sub, h1.coords, h2.coords), orders))  # h1 - h2
            zero = vanishes.get(d)
            if zero is None:
                zero = char_sum_on_set(S, GroupElement._trusted(spec, d)).is_zero()
                vanishes[d] = zero
            if not zero:
                failing = (h1, h2)
                break
    if failing is not None:
        return SpectralFailure(kind="pair", pair=failing)
    return SpectrumCertificate(set=S, spectrum=spectrum, checked_pairs=pairs)


def _difference_blocks(spec: GroupSpec, ranks: np.ndarray, dtype) -> Iterator[tuple[int, np.ndarray]]:
    """Row blocks (i, D) of the difference ranks: D[a, j] = rank(g_j - g_(i+a)).

    The ranks are summed factor by factor: with x = c_j s and
    y = (-c_i mod n) s for a factor of order n and stride s, the term of
    the factor is x + y, less n s when that reaches n s. ``dtype`` must
    hold twice the group order.
    """
    terms = []
    for c, n, s in zip(spec.decode(ranks).T, spec.orders, spec._strides):
        terms.append(((c * s).astype(dtype), (-c % n * s).astype(dtype), dtype(n * s)))
    size = len(ranks)
    block = max(1, _BLOCK_ENTRIES // size)
    for i in range(0, size, block):
        diff = np.zeros((min(block, size - i), size), dtype=dtype)
        t = np.empty_like(diff)
        for x, y, wrap in terms:
            np.add(x[None, :], y[i:i + block, None], out=t)
            np.subtract(t, wrap, out=t, where=t >= wrap)
            diff += t
        yield i, diff


def _first_failing_pair(
    S: PointSet, spectrum: PointSet
) -> tuple[GroupElement, GroupElement] | None:
    """The first pair in ``combinations`` order that is not orthogonal on S, if any.

    Each row block of difference ranks first tests, in one batch, the
    differences that no earlier block has met; ``verdict`` keeps them per
    group rank (0 untested, 1 vanishes, 2 does not). The block holds
    h_j - h_i, whose character sum is the complex conjugate of the one at
    h_i - h_j, so both vanish together. The first failing entry above the
    diagonal, in row-major order, is then the first failing pair of the
    walk.
    """
    spec = S.group
    ranks = spectrum.rank_array
    size = len(ranks)
    verdict = np.zeros(spec.order, dtype=np.int8)
    cols = np.arange(size)
    # Ranks stay below twice the enumeration budget, which int32 holds.
    for i, diff in _difference_blocks(spec, ranks, np.int32):
        later = cols > np.arange(i, i + len(diff))[:, None]  # the pairs (i, j), j > i
        d = diff[later]
        pending = np.sort(d[verdict[d] == 0])
        new = pending[np.diff(pending, prepend=-1) != 0]
        if new.size:
            verdict[new] = np.where(_vanishing_at(S, new), 1, 2)
        bad = later & (verdict[diff] == 2)
        if bad.any():
            a, j = divmod(int(bad.argmax()), size)
            return spec.element_at(int(ranks[i + a])), spec.element_at(int(ranks[j]))
    return None


def _zero_set_ranks(S: PointSet) -> list[int]:
    """Ascending ranks of the nonzero h whose character sum over S vanishes.

    The zero set is a union of Galois classes: for u coprime to the exponent,
    sigma_u maps the sum at h to the sum at u*h, and every generator of <h>
    is such a u*h. So one exact test per class decides it, and the least
    ranks of the classes are tested in one batch.
    """
    spec = S.group
    reps = _class_representatives(spec)
    zero = np.zeros(spec.order, dtype=bool)
    zero[reps] = _vanishing_at(S, reps)
    return np.flatnonzero(zero[_galois_labels(spec)]).tolist()


@lru_cache(maxsize=8)
def _class_representatives(spec: GroupSpec) -> np.ndarray:
    """The least rank of each Galois class of nonzero elements, ascending."""
    label = _galois_labels(spec)
    reps = np.flatnonzero(label == np.arange(spec.order))[1:]  # 0 is a class of its own
    reps.flags.writeable = False
    return reps


@lru_cache(maxsize=8)
def _galois_labels(spec: GroupSpec) -> np.ndarray:
    """label[r]: the least rank in the Galois class of the element of rank r.

    The class of h is {u h : u a unit mod the exponent L}. For each
    generator u of the units, pointer doubling along the permutation
    h -> u h takes the least label over the cycle through h: after k
    doublings, over u^j h for j < 2^k. Taking the generators one after
    another gives the least rank over the whole class, at a cost of
    |G| log2(L) per generator.
    """
    L = spec.exponent
    ranks = np.arange(spec.order)
    label = ranks
    for u in _unit_generators(L):
        step = np.zeros_like(ranks)
        for c, n, s in zip(spec.decode(ranks).T, spec.orders, spec._strides):
            step += c * u % n * s
        for _ in range(L.bit_length()):  # 2^k > L > ord(u)
            label = np.minimum(label, label[step])
            step = step[step]
    label.flags.writeable = False
    return label


def _unit_generators(L: int) -> list[int]:
    """Units mod L that generate all of them, each outside the group of those before."""
    gens, subgroup = [], {1}
    for u in range(2, L):
        if u not in subgroup and math.gcd(u, L) == 1:
            gens.append(u)
            grown, power = set(subgroup), u
            while power not in subgroup:  # <subgroup, u> is the union of u^j subgroup
                grown.update(power * x % L for x in subgroup)
                power = power * u % L
            subgroup = grown
    return gens


@dataclass(frozen=True)
class SearchOutcome:
    """Outcome of a spectrum or complement search: found / exhausted / budget."""

    status: str
    certificate: SpectrumCertificate | TilingCertificate | None
    nodes: int
    detail: str = ""


def _orthogonality_rows(spec: GroupSpec, ranks: np.ndarray, zero: np.ndarray) -> list[int]:
    """Bitset rows of the orthogonality graph on the vertices ``ranks``.

    Bit j of row i is set iff rank(g_j - g_i) is in the zero set, given as
    the boolean array ``zero`` over group ranks.
    """
    rows: list[int] = []
    # Every value stays below 2 * MAX_SEARCH_ORDER, which int16 holds.
    for _, diff in _difference_blocks(spec, ranks, np.int16):
        packed = np.packbits(zero[diff], axis=1, bitorder="little")
        rows.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return rows


def _clique_search(
    adj: list[int],
    start: int,
    target: int,
    budget: int,
    canonical: bool,
) -> tuple[str, list[int] | None, int]:
    """First clique of size ``target`` containing vertex ``start``, or exhaustion.

    Vertices are bits, and the bit order is the static order: descending
    degree (ties by index) in default mode, vertex index in canonical mode;
    ``find_spectrum`` builds the rows already relabelled. Default mode is
    Tomita-style branch and bound: each node colours its candidates first fit
    in vertex order (each class takes the lowest uncoloured vertex, then
    repeatedly the lowest one adjacent to none of its members) and branches
    from the highest colour down, ascending inside a class, until the colour
    bound cannot reach the target. Canonical mode branches in ascending
    vertex order, so the first clique found is the lexicographically least
    one; the number of colour classes and the count of remaining candidates
    prune only subtrees that cannot hold a clique of the needed size. Both
    modes walk the tree depth first on one explicit stack and differ only in
    the branch masks a node computes.

    A node that needs ``need`` more vertices colours only until its fate is
    known: with c classes built and R candidates uncoloured, at most c + |R|
    classes can result, so c + |R| < need prunes it in either mode. Canonical
    mode builds at most need - 1 classes. Each colouring step is one big-int
    AND over the vertex count.
    """
    # Inside the kernel vertex v is bit V - 1 - v, so the lowest vertex of a
    # mask Q is found by b = Q.bit_length(), as vertex V - b; the tables are
    # indexed by that bit length.
    V = len(adj)
    full = (1 << V) - 1
    near = [0] + [int(format(a, f"0{V}b")[::-1], 2) for a in reversed(adj)]
    bit = [0] + [1 << i for i in range(V)]
    apart = [full ^ a ^ b for a, b in zip(near, bit)]  # other non-neighbours

    # One frame per open node: the candidates not yet branched on, and the
    # masks of the vertices still to branch on, the last mask first. Branching
    # on v removes v from the candidates, so a child's candidates are the
    # remaining ones adjacent to v (in canonical mode, exactly those after v).
    clique = [start]
    P = near[V - start]
    frames: list[list] = []
    nodes = 0
    while True:
        nodes += 1
        if nodes > budget:
            return "budget", None, nodes
        need = target - len(clique)
        if not need:
            return "found", clique, nodes
        rest = P
        for c in range(need - 1):  # colours below need: removed, not branched on
            if c + rest.bit_count() < need:
                rest = 0
                break
            Q = rest
            while Q:
                b = Q.bit_length()
                Q &= apart[b]
                rest ^= bit[b]
        masks = []
        if canonical:
            if rest:  # a class of colour need exists
                first = P
                for _ in range(need - 1):  # too few candidates follow these
                    first &= first - 1
                masks.append(first)
        else:
            while rest:
                cls, Q = 0, rest
                while Q:
                    b = Q.bit_length()
                    Q &= apart[b]
                    cls |= bit[b]
                masks.append(cls)
                rest ^= cls
        frames.append([P, masks])
        while not frames[-1][1]:
            frames.pop()
            if not frames:
                return "exhausted", None, nodes
            clique.pop()
        frame = frames[-1]
        masks = frame[1]
        b = masks[-1].bit_length()
        masks[-1] ^= bit[b]
        if not masks[-1]:
            masks.pop()
        frame[0] ^= bit[b]
        clique.append(V - b)
        P = frame[0] & near[b]


def find_spectrum(
    S: PointSet,
    budget: int = DEFAULT_SEARCH_NODES,
    canonical: bool = False,
) -> SearchOutcome:
    """Search for a spectrum of S, or prove by exhaustion that none exists.

    Spectra are translation-invariant, so the search may fix 0 in the
    candidate spectrum; the orthogonality graph restricted to the neighbors of
    0 is then scanned for a clique of size |S| - 1. A returned certificate is
    always re-verified from scratch. ``exhausted`` is only reported when the
    full branch-and-bound tree was traversed; running out of nodes is the
    distinct ``budget`` outcome.
    """
    spec = S.group
    k = len(S)
    if k == 0:
        raise ValueError("empty sets are excluded (counting measure zero)")
    if spec.order > MAX_SEARCH_ORDER:
        return SearchOutcome(
            status="budget",
            certificate=None,
            nodes=0,
            detail=f"ambient order {spec.order} exceeds search cap {MAX_SEARCH_ORDER}",
        )

    # Orthogonality to 0 depends only on the difference, so the candidate
    # vertices are exactly the nonzero elements whose character sum vanishes.
    zero_diffs = _zero_set_ranks(S)
    if len(zero_diffs) + 1 < k:
        return SearchOutcome(status="exhausted", certificate=None, nodes=1)

    zero = np.zeros(spec.order, dtype=bool)
    zero[zero_diffs] = True
    ranks = np.array([0] + zero_diffs, dtype=np.int64)  # ascending: index order
    adj = _orthogonality_rows(spec, ranks, zero)
    if not canonical:
        # Relabel so that bit order is the static order of the colouring.
        order = sorted(range(len(adj)), key=lambda v: (-adj[v].bit_count(), v))
        ranks = ranks[order]
        adj = _orthogonality_rows(spec, ranks, zero)
    start = int(np.flatnonzero(ranks == 0)[0])

    status, clique, nodes = _clique_search(adj, start, k, budget, canonical)
    if status != "found":
        return SearchOutcome(status=status, certificate=None, nodes=nodes)
    spectrum = PointSet.from_ranks(spec, ranks[clique])
    cert = verify_spectral_pair(S, spectrum)
    if not isinstance(cert, SpectrumCertificate):
        raise RuntimeError(f"search produced a spectrum that fails re-verification: {cert}")
    return SearchOutcome(status="found", certificate=cert, nodes=nodes)
