"""Finite abelian groups as explicit products of cyclic factors.

A group is presented by its factor list ``Z_n1 x ... x Z_nd`` and is *not*
normalized to invariant factors: every construction downstream (products,
diagonals, box lifts) is coordinate-faithful, so ``2x3`` and ``6`` are
distinct specs even though they are isomorphic.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from typing import Iterable, Iterator, Sequence

import numpy as np

# Exhaustive walks (enumeration, coverage tables, closure checks) refuse to
# touch more than this many elements unless the caller raises the budget.
DEFAULT_ENUM_BUDGET = 1 << 24

# Parse-time size cap: specs whose order exceeds this are rejected outright.
MAX_ORDER = (1 << 63) - 1
MAX_FACTORS = 1024

# Numpy temporaries (blocks of difference ranks or of pair sums, and cached
# addition tables) hold at most this many entries, a few hundred kB.
_BLOCK_ENTRIES = 1 << 15


class BudgetExceededError(RuntimeError):
    """An operation would exceed its configured work budget."""


class GroupSpec:
    """A finite abelian group ``Z_n1 x ... x Z_nd`` with value semantics.

    Two specs are equal iff their factor lists are equal.
    """

    __slots__ = ("orders", "order", "exponent", "_strides", "_char_weights", "_radix", "_sums")

    def __init__(self, orders: Iterable[int]):
        facs = tuple(int(n) for n in orders)
        if not facs:
            raise ValueError("group spec needs at least one factor")
        if len(facs) > MAX_FACTORS:
            raise ValueError(f"size limit: more than {MAX_FACTORS} factors")
        for n in facs:
            if n < 1:
                raise ValueError(f"factor {n} is not a positive integer")
        order = 1
        for n in facs:
            order *= n
            if order > MAX_ORDER:
                raise ValueError(f"size limit: group order exceeds {MAX_ORDER}")
        self.orders = facs
        self.order = order
        self.exponent = math.lcm(*facs)
        strides = [1] * len(facs)
        for i in range(len(facs) - 2, -1, -1):
            strides[i] = strides[i + 1] * facs[i + 1]
        self._strides = tuple(strides)
        self._char_weights = tuple(self.exponent // n for n in facs)
        self._radix = (np.array(strides, dtype=np.int64), np.array(facs, dtype=np.int64))
        self._sums = None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, GroupSpec) and self.orders == other.orders

    def __hash__(self) -> int:
        return hash(self.orders)

    def __repr__(self) -> str:
        return f"GroupSpec({list(self.orders)!r})"

    def spec_string(self) -> str:
        """Canonical parseable form, e.g. ``24x24x24``."""
        return "x".join(str(n) for n in self.orders)

    def identity(self) -> GroupElement:
        return GroupElement._trusted(self, (0,) * len(self.orders))

    def element(self, coords: Iterable[int]) -> GroupElement:
        """Element from (possibly unreduced) integer coordinates."""
        return GroupElement(self, coords)

    def rank_of(self, coords: Sequence[int]) -> int:
        """Index of reduced coordinates in lexicographic enumeration order."""
        return sum(c * s for c, s in zip(coords, self._strides))

    def element_at(self, rank: int) -> GroupElement:
        if not 0 <= rank < self.order:
            raise ValueError(f"rank {rank} out of range for order {self.order}")
        coords = []
        for n in reversed(self.orders):
            rank, c = divmod(rank, n)
            coords.append(c)
        coords.reverse()
        return GroupElement._trusted(self, tuple(coords))

    def encode(self, coords: Sequence[Sequence[int]]) -> np.ndarray:
        """Ranks of the elements with the given reduced coordinates, one row each."""
        strides, _ = self._radix
        return np.array(coords, dtype=np.int64).reshape(-1, len(self.orders)) @ strides

    def decode(self, ranks: np.ndarray) -> np.ndarray:
        """Coordinates of the elements of the given ranks, in a new last axis."""
        strides, orders = self._radix
        coords = np.asarray(ranks, dtype=np.int64)[..., None] // strides
        coords %= orders
        return coords

    def add(self, x: np.ndarray | int, y: np.ndarray | int) -> np.ndarray:
        """rank(g_x + g_y) for the int64 rank arrays (or ranks) x and y, broadcast together.

        The sum accumulates factor by factor, so every temporary has the
        broadcast shape. A factor of order n adds its coordinates a and b as
        (a - (n - b)) mod n, whose terms int64 holds for every n up to
        ``MAX_ORDER``. A group whose addition table fits in ``_BLOCK_ENTRIES``
        entries builds that table on first use and reads sums from it: the
        tests' sweeps add sets of a few points, where each numpy call costs
        more than the arithmetic.
        """
        if self.order * self.order <= _BLOCK_ENTRIES:
            if self._sums is None:
                ranks = np.arange(self.order)
                self._sums = self._add_by_factor(ranks[:, None], ranks)
            return self._sums[x, y]
        return self._add_by_factor(x, y)

    def _add_by_factor(self, x: np.ndarray | int, y: np.ndarray | int) -> np.ndarray:
        out = 0
        for n, s in zip(self.orders, self._strides):
            out = out + (x // s % n - (n - y // s % n)) % n * s
        return out

    def elements(self, budget: int = DEFAULT_ENUM_BUDGET) -> Iterator[GroupElement]:
        """Yield every element exactly once, in lexicographic coordinate order."""
        if self.order > budget:
            raise BudgetExceededError(
                f"enumerating {self.order} elements exceeds budget {budget}"
            )
        for coords in itertools.product(*(range(n) for n in self.orders)):
            yield GroupElement._trusted(self, coords)


class GroupElement:
    """An element of a :class:`GroupSpec`, stored with reduced coordinates."""

    __slots__ = ("group", "coords")

    def __init__(self, group: GroupSpec, coords: Iterable[int]):
        cs = tuple(coords)
        if len(cs) != len(group.orders):
            raise ValueError(
                f"expected {len(group.orders)} coordinates, got {len(cs)}"
            )
        self.group = group
        self.coords = tuple(int(c) % n for c, n in zip(cs, group.orders))

    @classmethod
    def _trusted(cls, group: GroupSpec, coords: tuple[int, ...]) -> GroupElement:
        # Fast path for coordinates already reduced into range.
        el = object.__new__(cls)
        el.group = group
        el.coords = coords
        return el

    def rank(self) -> int:
        return self.group.rank_of(self.coords)

    def _require_same_group(self, other: GroupElement) -> None:
        if self.group != other.group:
            raise ValueError(
                f"ambient mismatch: {self.group.spec_string()} vs "
                f"{other.group.spec_string()}"
            )

    def __add__(self, other: GroupElement) -> GroupElement:
        self._require_same_group(other)
        g = self.group
        return GroupElement._trusted(
            g,
            tuple((a + b) % n for a, b, n in zip(self.coords, other.coords, g.orders)),
        )

    def __neg__(self) -> GroupElement:
        g = self.group
        return GroupElement._trusted(
            g, tuple((-a) % n for a, n in zip(self.coords, g.orders))
        )

    def __sub__(self, other: GroupElement) -> GroupElement:
        self._require_same_group(other)
        g = self.group
        return GroupElement._trusted(
            g,
            tuple((a - b) % n for a, b, n in zip(self.coords, other.coords, g.orders)),
        )

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.coords == other.coords
            and self.group == other.group
        )

    def __hash__(self) -> int:
        return hash(self.coords)

    def __lt__(self, other: GroupElement) -> bool:
        self._require_same_group(other)
        return self.coords < other.coords

    def __repr__(self) -> str:
        return f"Elem({','.join(map(str, self.coords))})"


class PointSet:
    """A duplicate-free subset of a group, stored as its sorted ranks.

    ``rank_array`` is a read-only int64 array of the ranks in ascending
    order, set by every constructor. The first coordinate has the largest
    stride, so ascending rank is lexicographic coordinate order: iteration
    follows it, and equal sets are bit-identical however they were
    assembled. ``points``, the elements as :class:`GroupElement` objects,
    are decoded from the ranks on first use.
    """

    __slots__ = ("group", "rank_array", "_points", "_hash")

    def __init__(self, group: GroupSpec, elements: Iterable[GroupElement]):
        coords = []
        for el in elements:
            if el.group is not group and el.group != group:
                raise ValueError(
                    f"element of {el.group.spec_string()} cannot join a point set "
                    f"in {group.spec_string()}"
                )
            coords.append(el.coords)
        self._set(group, group.encode(coords))

    def _set(self, group: GroupSpec, arr: np.ndarray) -> None:
        if arr.size > 1 and not (arr[1:] > arr[:-1]).all():
            # np.unique would import numpy.ma on first use, 15 ms
            arr.sort()
            arr = arr[np.diff(arr, prepend=arr[0] - 1) != 0]
        if arr.size and (arr[0] < 0 or arr[-1] >= group.order):
            raise ValueError(f"rank out of range for order {group.order}")
        arr.flags.writeable = False
        self.group = group
        self.rank_array = arr
        self._points = None
        self._hash = None

    @classmethod
    def from_coords(cls, group: GroupSpec, coords: Iterable[Iterable[int]]) -> PointSet:
        return cls(group, [GroupElement(group, c) for c in coords])

    @classmethod
    def from_ranks(cls, group: GroupSpec, ranks: Iterable[int]) -> PointSet:
        arr = np.array(ranks if isinstance(ranks, np.ndarray) else list(ranks), dtype=np.int64)
        ps = object.__new__(cls)
        ps._set(group, arr.ravel())
        return ps

    @property
    def points(self) -> tuple[GroupElement, ...]:
        if self._points is None:
            g = self.group
            self._points = tuple(
                [GroupElement._trusted(g, tuple(c)) for c in g.decode(self.rank_array).tolist()]
            )
        return self._points

    def ranks(self) -> tuple[int, ...]:
        return tuple(self.rank_array.tolist())

    def translate(self, t: GroupElement) -> PointSet:
        if t.group != self.group:
            raise ValueError(
                f"ambient mismatch: {self.group.spec_string()} vs {t.group.spec_string()}"
            )
        return PointSet.from_ranks(self.group, self.group.add(self.rank_array, t.rank()))

    def __len__(self) -> int:
        return len(self.rank_array)

    def __iter__(self) -> Iterator[GroupElement]:
        return iter(self.points)

    def __contains__(self, el: GroupElement) -> bool:
        if not isinstance(el, GroupElement) or el.group != self.group:
            return False
        r = el.rank()
        i = int(np.searchsorted(self.rank_array, r))
        return i < len(self.rank_array) and self.rank_array[i] == r

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, PointSet)
            and self.group == other.group
            and np.array_equal(self.rank_array, other.rank_array)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.group.orders, self.rank_array.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"PointSet({self.group.spec_string()}, {len(self)} points)"


_SPEC_RE = re.compile(r"[0-9]+(?:\^[0-9]+)?(?:[x,][0-9]+(?:\^[0-9]+)?)*")


def parse_group_spec(text: str) -> GroupSpec:
    """Parse ``factor ((','|'x') factor)*`` with ``factor := INT ('^' INT)?``.

    Examples: ``24^3`` -> Z_24 x Z_24 x Z_24; ``2x3`` -> Z_2 x Z_3.
    """
    if not isinstance(text, str) or not _SPEC_RE.fullmatch(text):
        raise ValueError(f"malformed group spec: {text!r}")
    orders: list[int] = []
    for factor in re.split(r"[x,]", text):
        if "^" in factor:
            base_s, rep_s = factor.split("^")
            base, rep = int(base_s), int(rep_s)
        else:
            base, rep = int(factor), 1
        if base < 1:
            raise ValueError(f"factor {base} is not a positive integer")
        if rep < 1:
            raise ValueError(f"repetition {rep} is not a positive integer")
        if rep > MAX_FACTORS or (base > 1 and base**min(rep, 64) > MAX_ORDER):
            raise ValueError(f"size limit: {factor!r} is too large")
        orders.extend([base] * rep)
    return GroupSpec(orders)


@functools.lru_cache(maxsize=64)
def product_group(g1: GroupSpec, g2: GroupSpec) -> GroupSpec:
    """The direct product, with coordinates of ``g1`` first."""
    if g1.order * g2.order > MAX_ORDER:
        raise ValueError(f"size limit: product order exceeds {MAX_ORDER}")
    return GroupSpec(g1.orders + g2.orders)


def format_element(el: GroupElement) -> str:
    """Compact rendering: ``5`` for one factor, ``(1,2)`` for several."""
    if len(el.coords) == 1:
        return str(el.coords[0])
    return "(" + ",".join(str(c) for c in el.coords) + ")"


def format_point_set(ps: PointSet) -> str:
    """Compact rendering in canonical order, e.g. ``{0,2}`` or ``{(0,0),(1,1)}``."""
    return "{" + ",".join(format_element(p) for p in ps.points) + "}"


def product_point_set(
    A: PointSet, B: PointSet, product: GroupSpec | None = None
) -> PointSet:
    """The Cartesian product ``A x B`` as a point set in the product group."""
    if product is None:
        product = product_group(A.group, B.group)
    # rank((a, b)) = rank(a) |H| + rank(b) for B in H: ascending, as A and B are
    ranks = A.rank_array[:, None] * B.group.order + B.rank_array
    return PointSet.from_ranks(product, ranks)
