"""The searches as they were before the bitset kernels, kept as test oracles.

``clique_search`` is the recursive clique search that colours each node by
scanning a static vertex order, with a separate greedy-colouring bound in
canonical mode. ``complement_search`` is the exact cover that scans the rows
covering each uncovered element at every node. ``spectrum_search`` builds the
orthogonality graph pair by pair through group elements. The property tests
check that the kernels in ``spectile`` walk the same trees: same outcome, same
witness, same node count.
"""

from __future__ import annotations

import sys

from spectile.groups import PointSet
from spectile.spectral import _zero_set_ranks


class _BudgetHit(Exception):
    pass


def greedy_color_bound(P: int, order: list[int], adj: list[int]) -> int:
    """Number of greedy color classes of the candidate mask P (clique bound)."""
    classes: list[int] = []
    for v in order:
        if not (P >> v) & 1:
            continue
        av = adj[v]
        for i, cmask in enumerate(classes):
            if not (av & cmask):
                classes[i] = cmask | (1 << v)
                break
        else:
            classes.append(1 << v)
    return len(classes)


def clique_search(
    adj: list[int], nverts: int, target: int, budget: int, canonical: bool
) -> tuple[str, list[int] | None, int]:
    """First clique of size ``target`` containing vertex 0, or exhaustion."""
    nodes = 0
    if canonical:
        order = list(range(nverts))
    else:
        order = sorted(range(nverts), key=lambda v: (-adj[v].bit_count(), v))
    found: list[int] | None = None

    def expand(R: list[int], P: int) -> bool:
        nonlocal nodes, found
        nodes += 1
        if nodes > budget:
            raise _BudgetHit
        if len(R) == target:
            found = list(R)
            return True
        if not P:
            return False
        need = target - len(R)
        if P.bit_count() < need:
            return False
        if canonical:
            if greedy_color_bound(P, order, adj) < need:
                return False
            Q = P
            while Q:
                v = (Q & -Q).bit_length() - 1
                Q &= Q - 1
                if Q.bit_count() + 1 < need:
                    return False
                R.append(v)
                if expand(R, P & adj[v] & ~((1 << (v + 1)) - 1)):
                    return True
                R.pop()
            return False
        classes: list[int] = []
        colored: list[tuple[int, int]] = []
        for v in order:
            if not (P >> v) & 1:
                continue
            av = adj[v]
            for ci, cmask in enumerate(classes):
                if not (av & cmask):
                    classes[ci] = cmask | (1 << v)
                    colored.append((v, ci + 1))
                    break
            else:
                classes.append(1 << v)
                colored.append((v, len(classes)))
        local = P
        for v, color in sorted(colored, key=lambda t: -t[1]):
            if len(R) + color < target:
                return False
            R.append(v)
            if expand(R, local & adj[v]):
                return True
            R.pop()
            local &= ~(1 << v)
        return False

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, nverts + 1000))
    try:
        ok = expand([0], adj[0])
    except _BudgetHit:
        return "budget", None, nodes
    finally:
        sys.setrecursionlimit(old_limit)
    return ("found", found, nodes) if ok else ("exhausted", None, nodes)


def spectrum_search(
    S: PointSet, budget: int, canonical: bool
) -> tuple[str, tuple[int, ...] | None, int]:
    """(status, spectrum ranks, nodes) of the spectrum search on S."""
    spec = S.group
    zero_diffs = _zero_set_ranks(S)
    rank_list = [0] + zero_diffs
    if len(rank_list) < len(S):
        return "exhausted", None, 1
    elems = [spec.element_at(r) for r in rank_list]
    zset = set(zero_diffs)
    n = len(rank_list)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if (elems[j] - elems[i]).rank() in zset:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    status, clique, nodes = clique_search(adj, n, len(S), budget, canonical)
    if clique is None:
        return status, None, nodes
    return status, tuple(sorted(rank_list[i] for i in clique)), nodes


def complement_search(
    A: PointSet, budget: int, canonical: bool
) -> tuple[str, tuple[int, ...] | None, int]:
    """(status, complement ranks, nodes) of the complement search for A."""
    spec = A.group
    n = spec.order
    need = n // len(A)
    orders, strides = spec.orders, spec._strides
    coords_at = [spec.element_at(r).coords for r in range(n)]
    row_mask = [0] * n
    for u in range(n):
        uc = coords_at[u]
        mask = 0
        for a in A.points:
            r = 0
            for x, y, nn, s in zip(a.coords, uc, orders, strides):
                r += ((x + y) % nn) * s
            mask |= 1 << r
        row_mask[u] = mask
    rows_covering: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        mask = row_mask[u]
        while mask:
            g = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            rows_covering[g].append(u)

    full = (1 << n) - 1
    nodes = 0
    chosen: list[int] = []
    found: list[int] | None = None

    def expand_exact_cover(cover: int) -> bool:
        nonlocal nodes, found
        nodes += 1
        if nodes > budget:
            raise _BudgetHit
        if cover == full:
            found = list(chosen)
            return True
        best_rows = None
        uncovered = full & ~cover
        while uncovered:
            g = (uncovered & -uncovered).bit_length() - 1
            uncovered &= uncovered - 1
            cands = [u for u in rows_covering[g] if not (row_mask[u] & cover)]
            if best_rows is None or len(cands) < len(best_rows):
                best_rows = cands
                if not cands:
                    break
        if not best_rows:
            return False
        for u in best_rows:
            chosen.append(u)
            if expand_exact_cover(cover | row_mask[u]):
                return True
            chosen.pop()
        return False

    def expand_lex(cover: int, last: int) -> bool:
        nonlocal nodes, found
        nodes += 1
        if nodes > budget:
            raise _BudgetHit
        if cover == full:
            found = list(chosen)
            return True
        if len(chosen) == need:
            return False
        g_min = ((full & ~cover) & -(full & ~cover)).bit_length() - 1
        if not any(u > last and not (row_mask[u] & cover) for u in rows_covering[g_min]):
            return False
        for u in range(last + 1, n):
            if not (row_mask[u] & cover):
                chosen.append(u)
                if expand_lex(cover | row_mask[u], u):
                    return True
                chosen.pop()
        return False

    try:
        chosen.append(0)
        ok = expand_lex(row_mask[0], 0) if canonical else expand_exact_cover(row_mask[0])
    except _BudgetHit:
        return "budget", None, nodes
    if not ok:
        return "exhausted", None, nodes
    return "found", tuple(sorted(found)), nodes
