"""Box-normalized sets in Z^d, grid lifting, and finite-quotient checks.

A base set lives inside the box ``[0,n_1) x ... x [0,n_d)``. Lifting by ``k``
adds the grid ``{0, n_i, ..., (k-1) n_i}`` in every coordinate, multiplying
the cardinality by ``k^d`` with no collisions. Reading a lifted set modulo
``k*n_i`` turns spectrality questions over Z^d into finite-group searches: a
spectrum found in the quotient is a rational spectrum ``{lambda/m}`` for the
integer set. The converse is *not* claimed anywhere: failure in one quotient
says nothing about Z^d, and the pipeline labels such evidence accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .diagonal import product_with_diagonal
from .groups import (DEFAULT_ENUM_BUDGET, BudgetExceededError, GroupSpec, PointSet,
                     product_point_set)
from .spectral import SpectrumCertificate, verify_spectral_pair

DEFAULT_MAX_LIFT = 4


class BoxedSet:
    """A duplicate-free set of integer vectors inside a (possibly lifted) box.

    ``dims`` is the base box; after lifting by ``k`` (recorded in
    ``lift_factor``) coordinates range over ``[0, k*n_i)``, which are the
    reduced coordinates of ``prod Z_{k n_i}``. ``point_set`` holds the points
    as a :class:`PointSet` of that group, so its rank order is the
    lexicographic order of ``points``.
    """

    __slots__ = ("dims", "lift_factor", "point_set")

    def __init__(self, dims: Iterable[int], points: Iterable[Sequence[int]], lift_factor: int = 1):
        ds = tuple(int(n) for n in dims)
        if not ds or any(n < 1 for n in ds):
            raise ValueError(f"box dims must be positive integers, got {ds}")
        if lift_factor < 1:
            raise ValueError(f"lift factor must be positive, got {lift_factor}")
        rows: list[tuple[int, ...]] = []
        for p in points:
            t = tuple(int(c) for c in p)
            if len(t) != len(ds):
                raise ValueError(f"point {t} does not match box dimension {len(ds)}")
            for c, n in zip(t, ds):
                if not 0 <= c < n * lift_factor:
                    raise ValueError(
                        f"coordinate {c} of point {t} outside [0, {n * lift_factor})"
                    )
            rows.append(t)
        group = GroupSpec(n * lift_factor for n in ds)
        self.dims = ds
        self.lift_factor = int(lift_factor)
        self.point_set = PointSet.from_ranks(group, group.encode(rows))

    @classmethod
    def _trusted(cls, dims: tuple[int, ...], point_set: PointSet, lift_factor: int) -> BoxedSet:
        # Points already inside the box: built from ranks, without re-validating.
        bs = object.__new__(cls)
        bs.dims, bs.point_set, bs.lift_factor = dims, point_set, lift_factor
        return bs

    @property
    def points(self) -> tuple[tuple[int, ...], ...]:
        ps = self.point_set
        return tuple(map(tuple, ps.group.decode(ps.rank_array).tolist()))

    @property
    def is_base(self) -> bool:
        return self.lift_factor == 1

    def __len__(self) -> int:
        return len(self.point_set)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BoxedSet)
            and self.dims == other.dims
            and self.lift_factor == other.lift_factor
            and self.point_set == other.point_set
        )

    def __hash__(self) -> int:
        return hash((self.dims, self.lift_factor, self.point_set))

    def __repr__(self) -> str:
        dims = list(self.dims)
        return f"BoxedSet(dims={dims}, {len(self)} points, lift_factor={self.lift_factor})"


def lift(A: BoxedSet, k: int) -> BoxedSet:
    """A plus the grid {0, n_i, ..., (k-1) n_i} in every coordinate.

    The result has exactly |A| * k^d points; a collision would mean the input
    left its box, so it is asserted.
    """
    if not A.is_base:
        raise ValueError("only base-boxed sets can be lifted")
    if k < 1:
        raise ValueError(f"lift factor must be positive, got {k}")
    d = len(A.dims)
    grid = GroupSpec((k,) * d).decode(np.arange(k**d)) * np.array(A.dims)
    group = GroupSpec(k * n for n in A.dims)
    coords = A.point_set.group.decode(A.point_set.rank_array)[:, None, :] + grid
    out = BoxedSet._trusted(A.dims, PointSet.from_ranks(group, group.encode(coords)), k)
    if len(out) != len(A) * k**d:
        raise AssertionError("grid lift collided; input set was not base-boxed")
    return out


def box_product(A: BoxedSet, B: BoxedSet) -> BoxedSet:
    """Cartesian product, concatenating coordinates (same lift factor required)."""
    if A.lift_factor != B.lift_factor:
        raise ValueError("cannot form the product of boxes at different lift factors")
    ps = product_point_set(A.point_set, B.point_set)
    return BoxedSet._trusted(A.dims + B.dims, ps, A.lift_factor)


def product_lift_identity(A: BoxedSet, B: BoxedSet, k: int) -> bool:
    """Is lift(A,k) x lift(B,k) the same point set as lift(A x B, k)?"""
    return box_product(lift(A, k), lift(B, k)) == lift(box_product(A, B), k)


def to_quotient(A: BoxedSet, moduli: Iterable[int]) -> PointSet:
    """Read the points as elements of prod Z_{m_i}; reduction must be injective.

    Any coordinate >= m_i is rejected rather than wrapped, so distinct integer
    points can never collapse.
    """
    ms = tuple(int(m) for m in moduli)
    if len(ms) != len(A.dims):
        raise ValueError(f"expected {len(A.dims)} moduli, got {len(ms)}")
    spec = GroupSpec(ms)
    coords = A.point_set.group.decode(A.point_set.rank_array)
    above = np.argwhere(coords >= np.array(ms))
    if above.size:  # row-major: the first point in lexicographic order, then its first axis
        i, j = above[0]
        p = tuple(coords[i].tolist())
        raise ValueError(
            f"coordinate {p[j]} of point {p} not below modulus {ms[j]}; "
            "reduction would not be injective"
        )
    return PointSet.from_ranks(spec, spec.encode(coords))


def scaled_diagonal_spectrum(dims: Sequence[int], k: int) -> PointSet:
    """The diagonal spectrum of a product set, transported through a k-lift.

    In prod Z_{k*n_i} (doubled coordinates) the set
    ``{k*(g,g) + t : g in prod Z_{n_i}, t in [0,k)^(2d)}`` is the spectrum the
    lift construction inherits from the diagonal.
    """
    base = GroupSpec(dims)
    quot = GroupSpec(tuple(k * n for n in dims) * 2)
    g = base.decode(np.arange(base.order))
    t = GroupSpec((k,) * len(quot.orders)).decode(np.arange(k ** len(quot.orders)))
    coords = k * np.concatenate([g, g], axis=1)[:, None, :] + t
    return PointSet.from_ranks(quot, quot.encode(coords))


@dataclass(frozen=True)
class PipelineStep:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str


@dataclass(frozen=True)
class PipelineReport:
    """Per-step outcome of the tiling-to-lifted-spectrum chain."""

    dims: tuple[int, ...]
    k: int
    moduli: tuple[int, ...]
    steps: tuple[PipelineStep, ...]

    @property
    def all_pass(self) -> bool:
        return all(s.status == "pass" for s in self.steps)

    def render(self) -> str:
        head = (
            f"pipeline box={'x'.join(str(n) for n in self.dims)} k={self.k} "
            f"quotient-moduli={'x'.join(str(m) for m in self.moduli)}"
        )
        lines = [head]
        for s in self.steps:
            lines.append(f"step={s.name} status={s.status} detail={s.detail}")
        return "\n".join(lines)


def tiling_product_pipeline(
    A: BoxedSet,
    B: BoxedSet,
    k: int,
    max_k: int = DEFAULT_MAX_LIFT,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> PipelineReport:
    """Check the four-step chain from a box tiling to a lifted spectrum.

    (i) A tiles with B in prod Z_{n_i}; (ii) A x B passes the diagonal
    criterion there; (iii) the lift commutes with the product at this k;
    (iv) the lifted product, read modulo k*n_i, is verified spectral against
    the explicitly scaled diagonal spectrum (no search involved). A failing
    step stops the pipeline; later steps are reported as skipped.
    """
    if A.dims != B.dims:
        raise ValueError(f"box mismatch: {A.dims} vs {B.dims}")
    if not (A.is_base and B.is_base):
        raise ValueError("pipeline inputs must be base-boxed sets")
    if k < 1:
        raise ValueError(f"lift factor must be positive, got {k}")
    if k > max_k:
        raise ValueError(f"lift factor {k} exceeds the configured cap {max_k}")
    dims = A.dims
    base = GroupSpec(dims)
    if len(A) * len(B) != base.order:
        raise ValueError(f"|A|*|B| = {len(A)}*{len(B)} != {base.order} = box volume")
    moduli = tuple(k * n for n in dims) * 2
    quot_order = math.prod(moduli)
    if quot_order > enum_budget:
        raise BudgetExceededError(
            f"lifted quotient order {quot_order} exceeds budget {enum_budget}"
        )
    pd = product_with_diagonal(to_quotient(A, dims), to_quotient(B, dims))

    def lifted_spectrum() -> tuple[bool, str]:
        Cq = to_quotient(lift(box_product(A, B), k), moduli)
        res = verify_spectral_pair(Cq, scaled_diagonal_spectrum(dims, k))
        if isinstance(res, SpectrumCertificate):
            return True, f"|set|={len(Cq)} pairs-checked={res.checked_pairs}"
        return False, res.detail

    yes = {True: "yes", False: "no"}
    checks = (  # (name, check): check() -> (passed, detail)
        ("tiling", lambda: (pd.tiling_ok, f"|A|={len(A)} |B|={len(B)}"
                            if pd.tiling_ok else pd.tiling.detail)),
        ("product-diagonal", lambda: (
            pd.agree and pd.spectral_ok, f"tiling={yes[pd.tiling_ok]} "
            f"product-spectral={yes[pd.spectral_ok]} agree={yes[pd.agree]}")),
        ("lift-identity", lambda: (product_lift_identity(A, B, k), f"k={k}")),
        ("lifted-spectrum", lifted_spectrum),
    )
    steps: list[PipelineStep] = []
    for name, check in checks:
        if steps and steps[-1].status != "pass":
            steps.append(PipelineStep(name, "skipped", "earlier step failed"))
            continue
        ok, detail = check()
        steps.append(PipelineStep(name, "pass" if ok else "fail", detail))
    return PipelineReport(dims=dims, k=k, moduli=moduli, steps=tuple(steps))
