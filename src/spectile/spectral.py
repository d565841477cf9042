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
import os
import pickle
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import mod, sub
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .cyclotomic import CyclotomicSum, _batch_is_zero, _crt_plan
from .groups import _BLOCK_ENTRIES, DEFAULT_ENUM_BUDGET, GroupElement, GroupSpec, PointSet

if TYPE_CHECKING:
    from .tiling import TilingCertificate

# From this many pairs on, verify_spectral_pair walks the pairs in numpy row
# blocks and tests their distinct differences in batches.
_WALK_MIN_PAIRS = 256

DEFAULT_SEARCH_NODES = 2_000_000
# Nodes the clique kernel walks before it forks: about five times a fork's cost.
_SERIAL_NODES = 1000
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
    _crt_plan(L)  # the zero test's cost bound, before the length-L histogram
    # Each dot product is below d L^2 for d <= 1024 factors, which int64 holds at L <= 10^7.
    wh = np.array([w * c % L for w, c in zip(spec._char_weights, h.coords)], dtype=np.int64)
    exps = spec.decode(S.rank_array) @ wh % L
    return CyclotomicSum(L, np.bincount(exps, minlength=L).tolist())


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
    _crt_plan(L)  # the zero test's cost bound, before any histogram
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
    |G| log2(ord(u)) per generator.
    """
    L = spec.exponent
    label = np.arange(spec.order)
    for u in _unit_generators(L):
        step = np.zeros(1, dtype=np.int64)  # h -> u h on ranks, built factor by factor
        for n, s in zip(spec.orders, spec._strides):
            step = (step[:, None] + np.arange(n) * u % n * s).ravel()
        ord_u = next(j for j in range(1, L) if pow(u, j, L) == 1)
        for _ in range((ord_u - 1).bit_length()):  # until 2^k >= ord(u)
            label = np.minimum(label, label[step])
            step = step[step]
    label.flags.writeable = False
    return label


def _unit_generators(L: int) -> list[int]:
    """Units mod L that generate all of them, each the least outside the group of those before."""
    units, inside, gens = np.gcd(np.arange(L), L) == 1, np.arange(L) == 1 % L, []
    while (outside := np.flatnonzero(units & ~inside)).size:
        gens.append(power := int(outside[0]))
        # After t squarings of u, inside holds u^j H for j < 2^t, H the group
        # before u: that is all of <H, u> once it holds u^(2^t).
        while not inside[power]:
            inside[np.flatnonzero(inside) * power % L] = True
            power = power * power % L
    return gens


@dataclass(frozen=True)
class SearchOutcome:
    """Outcome of a spectrum or complement search: found / exhausted / budget."""

    status: str
    certificate: SpectrumCertificate | TilingCertificate | None
    nodes: int
    detail: str = ""


def _packed_graph(
    spec: GroupSpec, ranks: np.ndarray, zero: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The orthogonality graph on the vertices ``ranks``, packed, and its degrees.

    Row i of the packed graph holds, in little bit order, bit j iff
    rank(g_j - g_i) is in the zero set, given as the boolean array ``zero``
    over group ranks. One pass over the difference blocks gives both.
    """
    size = len(ranks)
    packed = np.empty((size, (size + 7) // 8), dtype=np.uint8)
    degree = np.empty(size, dtype=np.int64)
    # Every value stays below 2 * MAX_SEARCH_ORDER, which int16 holds.
    for i, diff in _difference_blocks(spec, ranks, np.int16):
        adj = zero.take(diff)
        degree[i:i + len(adj)] = np.count_nonzero(adj, axis=1)
        packed[i:i + len(adj)] = np.packbits(adj, axis=1, bitorder="little")
    return packed, degree


def _orthogonality_rows(spec: GroupSpec, ranks: np.ndarray, zero: np.ndarray) -> list[int]:
    """Bitset rows of the orthogonality graph on the vertices ``ranks``, in index order.

    Bit j of row i is set iff rank(g_j - g_i) is in the zero set, given as
    the boolean array ``zero`` over group ranks: the rows ``_clique_search``
    takes. ``find_spectrum`` hands the kernel ``_kernel_rows`` instead.
    """
    packed, _ = _packed_graph(spec, ranks, zero)
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _kernel_rows(packed: np.ndarray, order: np.ndarray) -> list[int]:
    """Rows of a packed graph with vertex ``order[p]`` renamed p, in the kernel's bit order.

    Row p holds vertex q at bit V - 1 - q. The rows are permuted while
    packed, the columns one block at a time: unpacked, gathered in the
    reverse of ``order`` and packed again in little bit order. Beyond the
    packed graph, only one unpacked block is held at a time.
    """
    V = len(order)
    reverse = order[::-1]
    rows: list[int] = []
    block = max(1, _BLOCK_ENTRIES // V)
    for i in range(0, V, block):
        adj = np.unpackbits(packed[order[i:i + block]], axis=1, count=V, bitorder="little")
        relabelled = np.packbits(adj[:, reverse], axis=1, bitorder="little")
        rows.extend(int.from_bytes(row.tobytes(), "little") for row in relabelled)
    return rows


def _clique_search(
    adj: list[int],
    start: int,
    target: int,
    budget: int,
    canonical: bool,
) -> tuple[str, list[int] | None, int]:
    """``_clique_kernel`` on rows in index order: bit j of ``adj[i]`` joins i and j.

    The caller relabels the vertices into the static order first, as
    ``_clique_kernel`` describes; this only reverses each row's bits into
    the kernel's order.
    """
    V = len(adj)
    rows = [int(format(a, f"0{V}b")[::-1], 2) for a in adj]
    return _clique_kernel(rows, start, target, budget, canonical)


def _clique_kernel(
    rows: list[int],
    start: int,
    target: int,
    budget: int,
    canonical: bool,
    workers: int = 1,
) -> tuple[str, list[int] | None, int]:
    """First clique of size ``target`` containing vertex ``start``, or exhaustion.

    ``rows[v]`` holds vertex w at bit V - 1 - w iff v and w are adjacent, so
    the lowest vertex of a mask Q is V - Q.bit_length(). Vertex order is the
    static order: descending degree (ties by index) in default mode, vertex
    index in canonical mode; ``find_spectrum`` builds the rows already
    relabelled. Default mode is Tomita-style branch and bound: each node
    colours its candidates first fit in vertex order (each class takes the
    lowest uncoloured vertex, then repeatedly the lowest one adjacent to none
    of its members) and branches from the highest colour down, ascending
    inside a class, until the colour bound cannot reach the target.
    Canonical mode branches in ascending vertex order, so the first clique
    found is the lexicographically least one; the number of colour classes
    and the count of remaining candidates prune only subtrees that cannot
    hold a clique of the needed size. Both modes walk the tree depth first
    on one explicit stack and differ only in the branch masks a node
    computes.

    A node that needs ``need`` more vertices colours only until its fate is
    known: with c classes built and R candidates uncoloured, at most c + |R|
    classes can result, so c + |R| < need prunes it in either mode. Canonical
    mode builds at most need - 1 classes. Each vertex coloured costs one
    big-int AND over twice the vertex count: X = Q << V | R holds the
    vertices Q that the class may still take and the uncoloured candidates
    R, and ``take[X.bit_length()]`` removes the lowest vertex of Q and its
    neighbours from Q, and that vertex alone from R. The class is complete
    when Q is empty (X <= full); it is then the R it started from XOR X.

    Only a node that ``bound`` does not prune opens a generator over its
    ``children``, so a leaf, most nodes of a pruned tree, costs one call.

    The walk is split at the root: each branch is a task, its subtree walked
    from the clique [start, v]. The tasks run in order until ``_SERIAL_NODES``
    nodes are spent, the rest in ``workers`` processes that claim them in
    order from one queue (``_walk_forked``). A worker stops at its first task
    that finds a clique or runs over the budget and records it in shared
    memory, which every worker reads once per node: a worker inside a later
    task, which the result no longer needs, leaves it at its next node. Node
    counts add up in task order from 1 for the root, as in one walk.
    """
    # The tables are indexed by bit length: vertex V - b is bit b - 1 of a
    # row, and X.bit_length() is V + b while Q is not empty.
    V = len(rows)
    full = (1 << V) - 1
    near = [0, *reversed(rows)]
    bit = [0] + [1 << i for i in range(V)]
    take = [0] * (V + 1)
    take += [((full ^ a ^ m) << V) | (full ^ m) for a, m in zip(near[1:], bit[1:])]

    def bound(P: int, need: int) -> int:
        # The candidates of P left uncoloured after need - 1 colour classes,
        # or 0 if the node is pruned: then it has no child.
        rest = P
        for c in range(need - 1):  # colours below need: removed, not branched on
            if c + rest.bit_count() < need:
                return 0
            X = rest << V | rest
            while X > full:
                X &= take[X.bit_length()]
            rest = X
        return rest

    def children(P: int, need: int, rest: int) -> Iterator[tuple[int, int]]:
        # (b, candidates) of each child of the node with candidates P, in
        # branching order, given rest = bound(P, need), not 0. Branching on
        # vertex V - b removes it from P, so the child's candidates are the
        # remaining ones adjacent to it (in canonical mode, exactly those after it).
        if canonical:  # a class of colour need exists
            first = P
            for _ in range(need - 1):  # too few candidates follow these
                first &= first - 1
            masks = [first]
        else:
            masks = []
            while rest:
                X = rest << V | rest
                while X > full:
                    X &= take[X.bit_length()]
                masks.append(rest ^ X)
                rest = X
        for mask in reversed(masks):
            while mask:
                b = mask.bit_length()
                mask ^= bit[b]
                P ^= bit[b]
                yield b, P & near[b]

    def walk(share, spent: int, stop: float) -> list[tuple]:
        # (task, nodes, clique if found) of the tasks of ``share`` in order,
        # after ``spent`` nodes: up to the first found or over the budget, or
        # until ``stop`` nodes are spent. Each task is walked depth first, with
        # one open ``children`` per inner node on the path. A worker that stops
        # at task i sets stopped[0] to at most i, and no later task is needed.
        out = []
        for i in share:
            if spent >= stop or i > stopped[0]:
                break
            b, P = tasks[i]
            clique, frames, nodes = [start, V - b], [], 0
            while ((nodes := nodes + 1) + spent <= budget and len(clique) < target
                   and i <= stopped[0]):
                need = target - len(clique)
                if rest := bound(P, need):
                    frames.append(children(P, need, rest))
                else:
                    clique.pop()
                while frames and (step := next(frames[-1], None)) is None:
                    frames.pop()
                    clique.pop()
                if not frames:
                    break
                b, P = step
                clique.append(V - b)
            spent += nodes
            out.append((i, nodes, clique if len(clique) == target else None))
            if spent > budget or len(clique) == target:
                stopped[0] = min(stopped[0], i)
                break
        return out

    if budget < 1 or target == 1:
        return ("budget", None, 1) if budget < 1 else ("found", [start], 1)
    P = near[V - start]
    rest = bound(P, target - 1)
    tasks = list(children(P, target - 1, rest)) if rest else []
    stopped = [len(tasks)]
    split = workers > 1 and hasattr(os, "fork")
    results = walk(range(len(tasks)), 1, _SERIAL_NODES if split else math.inf)
    if stopped[0] == len(tasks) > len(results):
        import mmap  # stopped[0], shared with the workers: a lost update leaves a later stop

        spent = 1 + sum(r[1] for r in results)
        stopped = memoryview(mmap.mmap(-1, 8)).cast("q")
        stopped[0] = len(tasks)
        left = range(len(results), len(tasks))
        results += _walk_forked(lambda share: walk(share, spent, math.inf), left, workers)
    nodes = 1
    for _, n, clique in sorted(results):
        nodes += n
        if nodes > budget:
            return "budget", None, budget + 1
        if clique:
            return "found", clique, nodes
    return "exhausted", None, nodes


def _walk_forked(walk, tasks: range, workers: int) -> list[tuple]:
    """``walk`` in this process and in ``workers - 1`` forked children, concatenated.

    The workers draw ``tasks`` from one queue: a pipe holding each task index
    as a 2-byte little-endian record, at most 8 KiB, written whole before the
    first fork. A claim is one unbuffered 2-byte read, and the system
    serialises reads on a pipe, so each task goes to one worker, in ascending
    order, and a worker on a faster CPU walks more of them. A fork that fails
    leaves its work in the queue. The children send their lists back pickled
    over a pipe of their own. Each is reaped before this returns, and killed
    first if this raises. Worker j runs on the j-th CPU this process may use,
    where the platform allows it: on a 2-vCPU Linux VM the scheduler left a
    forked worker on its parent's CPU, both at half speed.
    """
    # Task indices are below MAX_SEARCH_ORDER = 4096: 8 KiB is under the pipe
    # buffer on Linux (64 KiB) and macOS (16 KiB), so the write cannot block.
    # A higher cap on the search order must revisit this.
    assert tasks.stop <= MAX_SEARCH_ORDER <= 4096
    pin = getattr(os, "sched_setaffinity", lambda pid, cpus: None)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]

    def claims() -> Iterator[int]:
        while record := os.read(q, 2):
            yield int.from_bytes(record, "little")

    children = {}
    q, w = os.pipe()
    try:
        with os.fdopen(w, "wb") as out:  # written whole and closed: empty reads as end of file
            out.write(np.array(tasks, dtype="<u2").tobytes())
        for j in range(1, workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare
                os.close(r)
                os.close(w)
                continue
            if not pid:  # the child, which never returns into its caller
                try:
                    os.close(r)
                    pin(0, {cpus[j % len(cpus)]})
                    with os.fdopen(w, "wb") as out:
                        pickle.dump(walk(claims()), out)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            children[pid] = os.fdopen(r, "rb")
        pin(0, cpus[:1])
        results = walk(claims())
        for pid, f in list(children.items()):
            data = f.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            f.close()
            if status:
                raise RuntimeError(f"search worker {pid} failed (wait status {status})")
            results += pickle.loads(data)
        return results
    finally:
        os.close(q)
        pin(0, cpus)
        for pid, f in children.items():
            f.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def find_spectrum(
    S: PointSet,
    budget: int = DEFAULT_SEARCH_NODES,
    canonical: bool = False,
    workers: int = 1,
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
    packed, degree = _packed_graph(spec, ranks, zero)
    # Relabel into the static order of the colouring: descending degree, ties
    # by index, in default mode. Vertex 0 is adjacent to all the others, so
    # it stays first in either order.
    order = np.arange(len(ranks)) if canonical else np.argsort(-degree, kind="stable")
    rows = _kernel_rows(packed, order)
    del packed  # the kernel's tables take its place
    ranks = ranks[order]

    status, clique, nodes = _clique_kernel(
        rows, 0, k, budget, canonical, min(workers, _available_cpus()))
    if status != "found":
        return SearchOutcome(status=status, certificate=None, nodes=nodes)
    spectrum = PointSet.from_ranks(spec, ranks[clique])
    cert = verify_spectral_pair(S, spectrum)
    if not isinstance(cert, SpectrumCertificate):
        raise RuntimeError(f"search produced a spectrum that fails re-verification: {cert}")
    return SearchOutcome(status="found", certificate=cert, nodes=nodes)
