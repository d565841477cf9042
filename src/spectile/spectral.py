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

import numpy as np

from .cyclotomic import CyclotomicSum
from .groups import GroupElement, GroupSpec, PointSet

# Above this cardinality a character sum is histogrammed through numpy
# (exact int64; guarded against overflow, with a big-int fallback).
_NUMPY_MIN_POINTS = 512

DEFAULT_SEARCH_NODES = 2_000_000
MAX_SEARCH_ORDER = 4096


@lru_cache(maxsize=8)
def _coord_matrix(S: PointSet) -> np.ndarray:
    return np.array([p.coords for p in S.points], dtype=np.int64)


def char_sum_on_set(S: PointSet, h: GroupElement) -> CyclotomicSum:
    """The exact sum of chi_h over S, as a histogram of root exponents."""
    if h.group != S.group:
        raise ValueError("character and set live in different groups")
    spec = S.group
    L = spec.exponent
    wh = tuple(w * c % L for w, c in zip(spec._char_weights, h.coords))
    if len(S) >= _NUMPY_MIN_POINTS and len(wh) * L * L < 2**62:
        exps = _coord_matrix(S) @ np.array(wh, dtype=np.int64)
        counts = np.bincount(exps % L, minlength=L)
        return CyclotomicSum(L, counts.tolist())
    counts = [0] * L
    for p in S.points:
        counts[sum(a * b for a, b in zip(wh, p.coords)) % L] += 1
    return CyclotomicSum(L, counts)


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
    """Why a candidate pair is not spectral."""

    kind: str  # "cardinality" or "pair"
    detail: str
    pair: tuple[GroupElement, GroupElement] | None = None
    ok = False


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
    non-orthogonal pair of the full walk.
    """
    spec, orders = S.group, S.group.orders
    if spectrum.group is not spec and spectrum.group != spec:
        raise ValueError("set and spectrum live in different groups")
    size = len(spectrum.points)
    if not S.points:
        raise ValueError("empty sets are excluded (counting measure zero)")
    if size != len(S.points):
        return SpectralFailure(
            kind="cardinality",
            detail=f"|S|={len(S)} but |spectrum|={size}",
        )
    vanishes = _vanishing_memo(S)
    for h1, h2 in combinations(spectrum.points, 2):
        d = tuple(map(mod, map(sub, h1.coords, h2.coords), orders))  # h1 - h2
        zero = vanishes.get(d)
        if zero is None:
            zero = char_sum_on_set(S, GroupElement._trusted(spec, d)).is_zero()
            vanishes[d] = zero
        if not zero:
            return SpectralFailure(
                kind="pair",
                detail=f"characters {h1!r} and {h2!r} are not orthogonal on S",
                pair=(h1, h2),
            )
    return SpectrumCertificate(set=S, spectrum=spectrum, checked_pairs=size * (size - 1) // 2)


def _zero_set_ranks(S: PointSet) -> list[int]:
    """Ascending ranks of the nonzero h whose character sum over S vanishes.

    The zero set is a union of Galois classes: for u coprime to the exponent,
    sigma_u maps the sum at h to the sum at u*h, and every generator of <h>
    is such a u*h. So one exact test per cyclic subgroup decides it.
    """
    spec = S.group
    vanishes: list[bool | None] = [None] * spec.order
    for r in range(1, spec.order):
        if vanishes[r] is None:
            h = spec.element_at(r)
            zero = char_sum_on_set(S, h).is_zero()
            for g in _generator_ranks(h):
                vanishes[g] = zero
    return [r for r in range(1, spec.order) if vanishes[r]]


def _generator_ranks(h: GroupElement) -> list[int]:
    """Ranks of the generators k*h of <h>: 1 <= k <= ord(h), gcd(k, ord(h)) = 1."""
    spec, coords = h.group, h.coords
    order = math.lcm(*(n // math.gcd(c, n) for c, n in zip(coords, spec.orders)))
    return [
        spec.rank_of([k * c % n for c, n in zip(coords, spec.orders)])
        for k in range(1, order + 1)
        if math.gcd(k, order) == 1
    ]


@dataclass(frozen=True)
class SpectrumSearch:
    """Outcome of a spectrum search: found / exhausted / budget."""

    status: str
    certificate: SpectrumCertificate | None
    nodes: int
    detail: str = ""


# Row blocks of the graph build hold at most this many entries, so its
# temporaries stay at a few hundred kB whatever the vertex count.
_GRAPH_BLOCK_ENTRIES = 1 << 15


def _orthogonality_rows(spec: GroupSpec, ranks: np.ndarray, zero: np.ndarray) -> list[int]:
    """Bitset rows of the orthogonality graph on the vertices ``ranks``.

    Bit j of row i is set iff rank(g_j - g_i) is in the zero set, given as
    the boolean array ``zero`` over group ranks. The difference ranks are
    summed factor by factor over blocks of rows: with x = c_j s and
    y = (-c_i mod n) s for a factor of order n and stride s, the term of
    the factor is x + y, less n s when that reaches n s.
    """
    # Every value stays below 2 * MAX_SEARCH_ORDER, which int16 holds.
    terms = []
    for n, s in zip(spec.orders, spec._strides):
        c = ranks // s % n
        terms.append(((c * s).astype(np.int16), (-c % n * s).astype(np.int16), np.int16(n * s)))
    size = len(ranks)
    block = max(1, _GRAPH_BLOCK_ENTRIES // size)
    rows: list[int] = []
    for i in range(0, size, block):
        diff = np.zeros((min(block, size - i), size), dtype=np.int16)
        t = np.empty_like(diff)
        for x, y, wrap in terms:
            np.add(x[None, :], y[i:i + block, None], out=t)
            np.subtract(t, wrap, out=t, where=t >= wrap)
            diff += t
        packed = np.packbits(zero[diff], axis=1, bitorder="little")
        rows.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return rows


def _color_classes(P: int, apart: list[int], limit: int = -1) -> list[int]:
    """First-fit colour classes of the candidate mask P, in ascending bit order.

    ``apart[v]`` is the mask of the vertices other than v not adjacent to it.
    Each class takes the lowest uncoloured vertex, then repeatedly the lowest
    one adjacent to none of its members; this gives exactly the classes of a
    sequential first-fit colouring that visits the vertices in bit order.
    A nonnegative ``limit`` stops after that many classes.
    """
    classes: list[int] = []
    while P and len(classes) != limit:
        cls = 0
        Q = P
        while Q:
            bit = Q & -Q
            cls |= bit
            Q &= apart[bit.bit_length() - 1]
        classes.append(cls)
        P ^= cls
    return classes


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
    Tomita-style branch and bound: each node colours its candidates class by
    class (``_color_classes``) and branches from the highest colour down,
    ascending inside a class, until the colour bound cannot reach the target.
    Canonical mode branches in ascending bit order, so the first clique found
    is the lexicographically least one; the number of colour classes and the
    count of remaining candidates prune only subtrees that cannot hold a
    clique of the needed size. Both modes walk the tree depth first on one
    explicit stack and differ only in the branch masks a node computes. The
    cost is the node count times the colouring, which is linear in the
    candidates of a node, each step one big-int AND over the vertex count.
    """
    full = (1 << len(adj)) - 1
    apart = [full ^ a ^ (1 << v) for v, a in enumerate(adj)]

    def branch_masks(P: int, need: int) -> list[int]:
        """The vertices a node branches on: the last mask first, each ascending."""
        if P.bit_count() < need:
            return []
        if canonical:
            if len(_color_classes(P, apart, need)) < need:
                return []
            for _ in range(need - 1):  # too few candidates follow these
                P ^= 1 << (P.bit_length() - 1)
            return [P]
        return _color_classes(P, apart)[need - 1:]  # colours >= need

    # One frame per open node: the candidates not yet branched on, and the
    # masks of the vertices still to branch on. Branching on v removes v from
    # the candidates, so a child's candidates are the remaining ones adjacent
    # to v (in canonical mode, exactly those after v).
    clique = [start]
    P = adj[start]
    frames: list[list] = []
    nodes = 0
    while True:
        nodes += 1
        if nodes > budget:
            return "budget", None, nodes
        if len(clique) == target:
            return "found", clique, nodes
        frames.append([P, branch_masks(P, target - len(clique))])
        while not frames[-1][1]:
            frames.pop()
            if not frames:
                return "exhausted", None, nodes
            clique.pop()
        frame = frames[-1]
        masks = frame[1]
        bit = masks[-1] & -masks[-1]
        masks[-1] ^= bit
        if not masks[-1]:
            masks.pop()
        frame[0] ^= bit
        v = bit.bit_length() - 1
        clique.append(v)
        P = frame[0] & adj[v]


def find_spectrum(
    S: PointSet,
    budget: int = DEFAULT_SEARCH_NODES,
    canonical: bool = False,
) -> SpectrumSearch:
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
        return SpectrumSearch(
            status="budget",
            certificate=None,
            nodes=0,
            detail=f"ambient order {spec.order} exceeds search cap {MAX_SEARCH_ORDER}",
        )

    # Orthogonality to 0 depends only on the difference, so the candidate
    # vertices are exactly the nonzero elements whose character sum vanishes.
    zero_diffs = _zero_set_ranks(S)
    if len(zero_diffs) + 1 < k:
        return SpectrumSearch(status="exhausted", certificate=None, nodes=1)

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
        return SpectrumSearch(status=status, certificate=None, nodes=nodes)
    spectrum = PointSet.from_ranks(spec, ranks[clique].tolist())
    cert = verify_spectral_pair(S, spectrum)
    if not isinstance(cert, SpectrumCertificate):
        raise RuntimeError(f"search produced a spectrum that fails re-verification: {cert}")
    return SpectrumSearch(status="found", certificate=cert, nodes=nodes)
