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

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .diagonal import product_with_diagonal
from .groups import DEFAULT_ENUM_BUDGET, BudgetExceededError, GroupSpec, PointSet
from .spectral import SpectrumCertificate, verify_spectral_pair

DEFAULT_MAX_LIFT = 4


class BoxedSet:
    """A duplicate-free set of integer vectors inside a (possibly lifted) box.

    ``dims`` is the base box; after lifting by ``k`` (recorded in
    ``lift_factor``) coordinates range over ``[0, k*n_i)``.
    """

    __slots__ = ("dims", "points", "lift_factor")

    def __init__(
        self,
        dims: Iterable[int],
        points: Iterable[Sequence[int]],
        lift_factor: int = 1,
    ):
        ds = tuple(int(n) for n in dims)
        if not ds or any(n < 1 for n in ds):
            raise ValueError(f"box dims must be positive integers, got {ds}")
        if lift_factor < 1:
            raise ValueError(f"lift factor must be positive, got {lift_factor}")
        seen: set[tuple[int, ...]] = set()
        pts: list[tuple[int, ...]] = []
        for p in points:
            t = tuple(int(c) for c in p)
            if len(t) != len(ds):
                raise ValueError(f"point {t} does not match box dimension {len(ds)}")
            for c, n in zip(t, ds):
                if not 0 <= c < n * lift_factor:
                    raise ValueError(
                        f"coordinate {c} of point {t} outside [0, {n * lift_factor})"
                    )
            if t not in seen:
                seen.add(t)
                pts.append(t)
        pts.sort()
        self.dims = ds
        self.points = tuple(pts)
        self.lift_factor = int(lift_factor)

    @property
    def is_base(self) -> bool:
        return self.lift_factor == 1

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BoxedSet)
            and self.dims == other.dims
            and self.lift_factor == other.lift_factor
            and self.points == other.points
        )

    def __hash__(self) -> int:
        return hash((self.dims, self.lift_factor, self.points))

    def __repr__(self) -> str:
        return (
            f"BoxedSet(dims={list(self.dims)}, {len(self.points)} points, "
            f"lift_factor={self.lift_factor})"
        )


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
    pts = [
        tuple(c + m * n for c, m, n in zip(p, shifts, A.dims))
        for p in A.points
        for shifts in itertools.product(range(k), repeat=d)
    ]
    out = BoxedSet(A.dims, pts, lift_factor=k)
    if len(out) != len(A) * k**d:
        raise AssertionError("grid lift collided; input set was not base-boxed")
    return out


def box_product(A: BoxedSet, B: BoxedSet) -> BoxedSet:
    """Cartesian product, concatenating coordinates (same lift factor required)."""
    if A.lift_factor != B.lift_factor:
        raise ValueError("cannot form the product of boxes at different lift factors")
    pts = [a + b for a in A.points for b in B.points]
    return BoxedSet(A.dims + B.dims, pts, lift_factor=A.lift_factor)


def product_lift_identity(A: BoxedSet, B: BoxedSet, k: int) -> bool:
    """Is lift(A,k) x lift(B,k) the same point set as lift(A x B, k)?"""
    lhs = box_product(lift(A, k), lift(B, k))
    rhs = lift(box_product(A, B), k)
    return lhs == rhs


def to_quotient(A: BoxedSet, moduli: Iterable[int]) -> PointSet:
    """Read the points as elements of prod Z_{m_i}; reduction must be injective.

    Any coordinate >= m_i is rejected rather than wrapped, so distinct integer
    points can never collapse.
    """
    ms = tuple(int(m) for m in moduli)
    if len(ms) != len(A.dims):
        raise ValueError(f"expected {len(A.dims)} moduli, got {len(ms)}")
    spec = GroupSpec(ms)
    for p in A.points:
        for c, m in zip(p, ms):
            if c >= m:
                raise ValueError(
                    f"coordinate {c} of point {p} not below modulus {m}; "
                    "reduction would not be injective"
                )
    return PointSet.from_coords(spec, A.points)


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
        raise ValueError(
            f"|A|*|B| = {len(A)}*{len(B)} != {base.order} = box volume"
        )
    moduli = tuple(k * n for n in dims) * 2
    quot_order = 1
    for m in moduli:
        quot_order *= m
    if quot_order > enum_budget:
        raise BudgetExceededError(
            f"lifted quotient order {quot_order} exceeds budget {enum_budget}"
        )

    steps: list[PipelineStep] = []

    def skip_rest(names: list[str]) -> PipelineReport:
        for name in names:
            steps.append(PipelineStep(name, "skipped", "earlier step failed"))
        return PipelineReport(dims=dims, k=k, moduli=moduli, steps=tuple(steps))

    Aq = to_quotient(A, dims)
    Bq = to_quotient(B, dims)
    pd = product_with_diagonal(Aq, Bq)
    if pd.tiling_ok:
        steps.append(PipelineStep("tiling", "pass", f"|A|={len(A)} |B|={len(B)}"))
    else:
        steps.append(PipelineStep("tiling", "fail", pd.tiling.detail))
        return skip_rest(["product-diagonal", "lift-identity", "lifted-spectrum"])

    ok = pd.agree and pd.spectral_ok
    steps.append(
        PipelineStep(
            "product-diagonal",
            "pass" if ok else "fail",
            f"tiling={'yes' if pd.tiling_ok else 'no'} "
            f"product-spectral={'yes' if pd.spectral_ok else 'no'} "
            f"agree={'yes' if pd.agree else 'no'}",
        )
    )
    if not ok:
        return skip_rest(["lift-identity", "lifted-spectrum"])

    if product_lift_identity(A, B, k):
        steps.append(PipelineStep("lift-identity", "pass", f"k={k}"))
    else:
        steps.append(PipelineStep("lift-identity", "fail", f"k={k}"))
        return skip_rest(["lifted-spectrum"])

    lifted = lift(box_product(A, B), k)
    Cq = to_quotient(lifted, moduli)
    spectrum = scaled_diagonal_spectrum(dims, k)
    res = verify_spectral_pair(Cq, spectrum)
    if isinstance(res, SpectrumCertificate):
        steps.append(
            PipelineStep(
                "lifted-spectrum",
                "pass",
                f"|set|={len(Cq)} pairs-checked={res.checked_pairs}",
            )
        )
    else:
        steps.append(PipelineStep("lifted-spectrum", "fail", res.detail))
    return PipelineReport(dims=dims, k=k, moduli=moduli, steps=tuple(steps))
