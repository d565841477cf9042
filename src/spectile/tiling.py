"""Exact translational tiling verification and complement search.

``A`` tiles the group with complement ``B`` when every element has exactly one
representation ``a + b``. Coverage is counted in a dense table indexed by the
lexicographic enumeration rank, and the complement search is an exact cover
over the translates of ``A``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (
    _BLOCK_ENTRIES,
    DEFAULT_ENUM_BUDGET,
    BudgetExceededError,
    GroupElement,
    GroupSpec,
    PointSet,
)
from .spectral import DEFAULT_SEARCH_NODES, MAX_SEARCH_ORDER, SearchOutcome


def _count_table(spec: GroupSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Count table over ``spec``: entry r counts the pairs of ranks with rank(g_x + g_y) = r.

    x and y are 2-D rank arrays, paired entry by entry after broadcasting;
    y has one row, paired with every row of x, or as many rows as x. The
    pairs are counted in row blocks of at most ``_BLOCK_ENTRIES`` pairs,
    each added into the table at a cost linear in the block.
    """
    table = np.zeros(spec.order, dtype=np.int64)
    rows = max(1, _BLOCK_ENTRIES // max(x.shape[1], y.shape[1]))
    for i in range(0, len(x), rows):
        cells = spec.add(x[i : i + rows], y if len(y) == 1 else y[i : i + rows])
        np.add.at(table, cells.ravel(), 1)
    return table


def _first_zero(table: list[int]) -> int | None:
    """Rank of the first entry 0, or None.

    Callers make the table sum to its length (|A||B| = |G|, or |P| = |G|),
    so a table with no zero is identically one, and any defect leaves a zero.
    """
    return table.index(0) if 0 in table else None


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
    return _count_table(spec, A.rank_array[:, None], B.rank_array[None, :]).tolist()


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
    count 0: with |A||B| = |G|, any element covered twice forces one of them.
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
    r = _first_zero(table)
    if r is None:
        return TilingCertificate(tile=A, complement=B, coverage=tuple(table))
    g = spec.element_at(r)
    return TilingFailure(
        kind="coverage",
        detail=f"element {g!r} is covered 0 times",
        element=g,
        count=0,
    )


def find_complement(
    A: PointSet,
    budget: int = DEFAULT_SEARCH_NODES,
    canonical: bool = False,
) -> SearchOutcome:
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
        return SearchOutcome(
            status="budget",
            certificate=None,
            nodes=0,
            detail=f"ambient order {n} exceeds search cap {MAX_SEARCH_ORDER}",
        )
    need = n // m

    # Row u is the translate u + A: row_cells[u] lists the elements it covers,
    # row_mask[u] masks them, rows_at[g] masks the rows that cover g, and
    # clash[u] the rows that meet row u (u among them). A row is blocked once
    # it meets a chosen row.
    row_cells = spec.add(np.arange(n)[:, None], A.rank_array)
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
    chosen = [0]
    # Default mode keeps count[g], the free rows that cover element g, plus n
    # once g is covered (every row covering it is then blocked), so the first
    # minimum is the uncovered element with fewest free rows, ties to the
    # smallest. Choosing row u subtracts the cells of the rows it blocks, and
    # backtracking adds them back.
    count = np.full(n, m)

    def shift(u: int, blocked: int, sign: int) -> None:
        """Apply (sign 1) or undo (sign -1) the choice of row u on top of ``blocked``."""
        rows, new = [], clash[u] & ~blocked
        while new:
            low = new & -new
            rows.append(low.bit_length() - 1)
            new ^= low
        count[row_cells[u]] += sign * n
        np.subtract(count, sign * np.bincount(row_cells[rows].ravel(), minlength=n), out=count)

    def branch_rows(cover: int, blocked: int) -> int:
        """The rows a node branches on, taken in ascending order."""
        free = full ^ blocked
        if canonical:
            # the free rows after the last chosen one, provided one of them
            # covers the smallest uncovered element
            if len(chosen) == need:
                return 0
            later = free & ~((2 << chosen[-1]) - 1)
            uncovered = full ^ cover
            return later if rows_at[(uncovered & -uncovered).bit_length() - 1] & later else 0
        return rows_at[int(count.argmin())] & free

    # Depth first on an explicit stack: one frame per open node, holding its
    # cover, its blocked rows and the rows it has still to branch on.
    cover, blocked = row_mask[0], clash[0]
    if not canonical:
        shift(0, 0, 1)
    frames: list[list[int]] = []
    nodes = 0
    while True:
        nodes += 1
        if nodes > budget:
            return SearchOutcome(status="budget", certificate=None, nodes=nodes)
        if cover == full:
            break
        frames.append([cover, blocked, branch_rows(cover, blocked)])
        while not frames[-1][2]:
            frames.pop()
            if not frames:
                return SearchOutcome(status="exhausted", certificate=None, nodes=nodes)
            u = chosen.pop()
            if not canonical:
                shift(u, frames[-1][1], -1)
        frame = frames[-1]
        bit = frame[2] & -frame[2]
        frame[2] ^= bit
        u = bit.bit_length() - 1
        chosen.append(u)
        if not canonical:
            shift(u, frame[1], 1)
        cover, blocked = frame[0] | row_mask[u], frame[1] | clash[u]

    B = PointSet.from_ranks(spec, chosen)
    cert = verify_tiling(A, B)
    if not isinstance(cert, TilingCertificate):
        raise RuntimeError(f"search produced a complement that fails re-verification: {cert}")
    return SearchOutcome(status="found", certificate=cert, nodes=nodes)
