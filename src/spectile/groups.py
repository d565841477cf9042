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

# Exhaustive walks (enumeration, coverage tables, closure checks) refuse to
# touch more than this many elements unless the caller raises the budget.
DEFAULT_ENUM_BUDGET = 1 << 24

# Parse-time size cap: specs whose order exceeds this are rejected outright.
MAX_ORDER = (1 << 63) - 1
MAX_FACTORS = 1024


class BudgetExceededError(RuntimeError):
    """An operation would exceed its configured work budget."""


class GroupSpec:
    """A finite abelian group ``Z_n1 x ... x Z_nd`` with value semantics.

    Two specs are equal iff their factor lists are equal.
    """

    __slots__ = ("orders", "order", "exponent", "_strides", "_char_weights")

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
    """A duplicate-free subset of a group, canonically sorted at construction.

    Iteration order is the lexicographic coordinate order of the points, so
    equal sets are bit-identical however they were assembled.
    """

    __slots__ = ("group", "points", "_hash")

    def __init__(self, group: GroupSpec, elements: Iterable[GroupElement]):
        by_coords: dict[tuple[int, ...], GroupElement] = {}
        for el in elements:
            if el.group is not group and el.group != group:
                raise ValueError(
                    f"element of {el.group.spec_string()} cannot join a point set "
                    f"in {group.spec_string()}"
                )
            by_coords.setdefault(el.coords, el)
        keys = sorted(by_coords)
        self.group = group
        self.points = tuple([by_coords[c] for c in keys])
        self._hash = hash((group.orders, tuple(keys)))

    @classmethod
    def _from_sorted(cls, group: GroupSpec, points: tuple[GroupElement, ...]) -> PointSet:
        # Trusted path: points already deduplicated and in canonical order.
        ps = object.__new__(cls)
        ps.group = group
        ps.points = points
        ps._hash = hash((group.orders, tuple(p.coords for p in points)))
        return ps

    @classmethod
    def from_coords(cls, group: GroupSpec, coords: Iterable[Iterable[int]]) -> PointSet:
        return cls(group, [GroupElement(group, c) for c in coords])

    @classmethod
    def from_ranks(cls, group: GroupSpec, ranks: Iterable[int]) -> PointSet:
        return cls(group, [group.element_at(r) for r in ranks])

    def ranks(self) -> tuple[int, ...]:
        return tuple(p.rank() for p in self.points)

    def translate(self, t: GroupElement) -> PointSet:
        return PointSet(self.group, [p + t for p in self.points])

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[GroupElement]:
        return iter(self.points)

    def __contains__(self, el: GroupElement) -> bool:
        if not isinstance(el, GroupElement) or el.group != self.group:
            return False
        lo, hi = 0, len(self.points)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.points[mid].coords < el.coords:
                lo = mid + 1
            else:
                hi = mid
        return lo < len(self.points) and self.points[lo].coords == el.coords

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, PointSet)
            and self.group == other.group
            and self.points == other.points
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"PointSet({self.group.spec_string()}, {len(self.points)} points)"


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


def pair_elements(
    a: GroupElement, b: GroupElement, product: GroupSpec | None = None
) -> GroupElement:
    """Concatenate coordinates into an element of the product group."""
    if product is None:
        product = product_group(a.group, b.group)
    elif product.orders != a.group.orders + b.group.orders:
        raise ValueError("product spec does not match the paired factors")
    return GroupElement._trusted(product, a.coords + b.coords)


def unpair_element(
    e: GroupElement, left: GroupSpec, right: GroupSpec
) -> tuple[GroupElement, GroupElement]:
    """Invert :func:`pair_elements`."""
    if e.group.orders != left.orders + right.orders:
        raise ValueError("element does not live in the given product group")
    d = len(left.orders)
    return (
        GroupElement._trusted(left, e.coords[:d]),
        GroupElement._trusted(right, e.coords[d:]),
    )


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
    pts = tuple(
        GroupElement._trusted(product, a.coords + b.coords)
        for a in A.points
        for b in B.points
    )
    # A and B are sorted, so the nested loop emits lexicographic order.
    return PointSet._from_sorted(product, pts)
