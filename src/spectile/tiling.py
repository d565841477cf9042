"""Exact translational tiling verification and complement search.

``A`` tiles the group with complement ``B`` when every element has exactly one
representation ``a + b``. Coverage is counted in a dense table indexed by the
lexicographic enumeration rank, and the complement search is an exact cover
over the translates of ``A``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .groups import (
    DEFAULT_ENUM_BUDGET,
    BudgetExceededError,
    GroupElement,
    GroupSpec,
    PointSet,
)
from .spectral import DEFAULT_SEARCH_NODES, MAX_SEARCH_ORDER


def sum_coverage(
    A: PointSet, B: PointSet, budget: int = DEFAULT_ENUM_BUDGET
) -> list[int]:
    """Count table over the group: entry at rank(g) is #{(a,b) : a+b = g}."""
    if A.group != B.group:
        raise ValueError("summands live in different groups")
    spec = A.group
    if spec.order > budget:
        raise BudgetExceededError(
            f"coverage table of size {spec.order} exceeds budget {budget}"
        )
    orders = spec.orders
    strides = spec._strides
    table = [0] * spec.order
    for a in A.points:
        ac = a.coords
        for b in B.points:
            r = 0
            for x, y, n, s in zip(ac, b.coords, orders, strides):
                r += ((x + y) % n) * s
            table[r] += 1
    return table


@dataclass(frozen=True)
class TilingCertificate:
    """A verified tiling: the coverage table is identically one."""

    tile: PointSet
    complement: PointSet
    coverage: tuple[int, ...]
    ok = True


@dataclass(frozen=True)
class TilingFailure:
    """Why (A, B) is not a tiling pair."""

    kind: str  # "cardinality" or "coverage"
    detail: str
    element: GroupElement | None = None
    count: int | None = None
    ok = False


def verify_tiling(
    A: PointSet, B: PointSet, budget: int = DEFAULT_ENUM_BUDGET
) -> TilingCertificate | TilingFailure:
    """Certificate iff every group element is covered exactly once by A + B.

    A coverage failure names the first element (in enumeration order) with
    count 0 when one exists, else the first with count > 1.
    """
    if A.group != B.group:
        raise ValueError("summands live in different groups")
    spec = A.group
    if len(A) == 0 or len(B) == 0:
        raise ValueError("empty sets are excluded (counting measure zero)")
    if len(A) * len(B) != spec.order:
        return TilingFailure(
            kind="cardinality",
            detail=f"|A|*|B| = {len(A)}*{len(B)} != |G| = {spec.order}",
        )
    table = sum_coverage(A, B, budget=budget)
    witness = None
    for r, c in enumerate(table):
        if c == 0:
            witness = (r, c)
            break
        if c != 1 and witness is None:
            witness = (r, c)
    if witness is None:
        return TilingCertificate(tile=A, complement=B, coverage=tuple(table))
    r, c = witness
    g = spec.element_at(r)
    return TilingFailure(
        kind="coverage",
        detail=f"element {g!r} is covered {c} times",
        element=g,
        count=c,
    )


def _translate_ranks(spec: GroupSpec, A: PointSet) -> np.ndarray:
    """Row u holds rank(g_u + a) for a in A, with g_u the element of rank u."""
    ranks = np.arange(spec.order, dtype=np.int64)
    sums = np.zeros((spec.order, len(A)), dtype=np.int64)
    for k, (n, s) in enumerate(zip(spec.orders, spec._strides)):
        shift = np.array([a.coords[k] for a in A.points], dtype=np.int64)
        sums += (ranks[:, None] // s + shift) % n * s
    return sums


@dataclass(frozen=True)
class ComplementSearch:
    """Outcome of a complement search: found / exhausted / budget."""

    status: str
    certificate: TilingCertificate | None
    nodes: int
    detail: str = ""


class _BudgetHit(Exception):
    pass


def find_complement(
    A: PointSet,
    budget: int = DEFAULT_SEARCH_NODES,
    canonical: bool = False,
) -> ComplementSearch:
    """Search for a tiling complement of A, or prove none exists.

    Complements are translation-closed, so the search fixes 0 in the
    complement. Default mode is exact cover with deterministic
    fewest-candidates-first column selection; canonical mode enumerates
    offsets in ascending order so the first solution is the lexicographically
    least complement. Certificates are re-verified through verify_tiling.
    """
    spec = A.group
    n = spec.order
    m = len(A)
    if m == 0:
        raise ValueError("empty sets are excluded (counting measure zero)")
    if n % m:
        raise ValueError(f"|A| = {m} does not divide |G| = {n}")
    if n > MAX_SEARCH_ORDER:
        return ComplementSearch(
            status="budget",
            certificate=None,
            nodes=0,
            detail=f"ambient order {n} exceeds search cap {MAX_SEARCH_ORDER}",
        )
    need = n // m

    # Row u is the translate u + A: row_mask[u] masks the elements it covers,
    # rows_at[g] the rows that cover g, and clash[u] the rows that meet row u
    # (u among them). A row is blocked once it meets a chosen row.
    row_cells = _translate_ranks(spec, A)
    row_mask = [sum(1 << g for g in cells.tolist()) for cells in row_cells]
    rows_at = [0] * n
    for u, cells in enumerate(row_cells):
        for g in cells.tolist():
            rows_at[g] |= 1 << u
    clash = [0] * n
    for u, cells in enumerate(row_cells):
        for g in cells.tolist():
            clash[u] |= rows_at[g]

    full = (1 << n) - 1
    nodes = 0
    chosen: list[int] = []
    found: list[int] | None = None

    def expand_exact_cover(cover: int, blocked: int) -> bool:
        nonlocal nodes, found
        nodes += 1
        if nodes > budget:
            raise _BudgetHit
        if cover == full:
            found = list(chosen)
            return True
        # fewest-candidates-first over uncovered elements, ties to smallest g
        best_rows, best_count = 0, n + 1
        free = full ^ blocked
        uncovered = full ^ cover
        while uncovered:
            bit = uncovered & -uncovered
            uncovered ^= bit
            rows = rows_at[bit.bit_length() - 1] & free
            count = rows.bit_count()
            if count < best_count:
                best_rows, best_count = rows, count
                if not count:
                    break
        while best_rows:
            bit = best_rows & -best_rows
            best_rows ^= bit
            u = bit.bit_length() - 1
            chosen.append(u)
            if expand_exact_cover(cover | row_mask[u], blocked | clash[u]):
                return True
            chosen.pop()
        return False

    def expand_lex(cover: int, blocked: int, last: int) -> bool:
        nonlocal nodes, found
        nodes += 1
        if nodes > budget:
            raise _BudgetHit
        if cover == full:
            found = list(chosen)
            return True
        if len(chosen) == need:
            return False
        later = (full ^ blocked) & ~((2 << last) - 1)  # free rows after last
        # the smallest uncovered element must be coverable by a later offset
        uncovered = full ^ cover
        if not rows_at[(uncovered & -uncovered).bit_length() - 1] & later:
            return False
        while later:
            bit = later & -later
            later ^= bit
            u = bit.bit_length() - 1
            chosen.append(u)
            if expand_lex(cover | row_mask[u], blocked | clash[u], u):
                return True
            chosen.pop()
        return False

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, need + 1000))
    try:
        chosen.append(0)
        ok = (
            expand_lex(row_mask[0], clash[0], 0)
            if canonical
            else expand_exact_cover(row_mask[0], clash[0])
        )
    except _BudgetHit:
        return ComplementSearch(status="budget", certificate=None, nodes=nodes)
    finally:
        sys.setrecursionlimit(old_limit)

    if not ok:
        return ComplementSearch(status="exhausted", certificate=None, nodes=nodes)
    B = PointSet.from_ranks(spec, found)
    cert = verify_tiling(A, B)
    if not isinstance(cert, TilingCertificate):
        raise RuntimeError(f"search produced a complement that fails re-verification: {cert}")
    return ComplementSearch(status="found", certificate=cert, nodes=nodes)
