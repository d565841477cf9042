"""Exact spectral-set and tiling verification in finite abelian groups."""

from .cyclotomic import CyclotomicSum, cyclotomic_poly
from .diagonal import (
    DiagonalPair,
    check_diagonal_spectral,
    diagonal_subgroup,
    product_with_diagonal,
    antidiagonal_transversal_check,
    run_agreement_harness,
    sum_multiset_check,
)
from .groups import (
    BudgetExceededError,
    GroupElement,
    GroupSpec,
    PointSet,
    parse_group_spec,
    product_group,
)
from .lifting import (
    BoxedSet,
    box_product,
    lift,
    product_lift_identity,
    spectral_in_quotient,
    tiling_product_pipeline,
    to_quotient,
)
from .spectral import (
    SpectrumCertificate,
    are_orthogonal,
    char_sum_on_set,
    character_pairing,
    find_spectrum,
    verify_spectral_pair,
)
from .tiling import TilingCertificate, find_complement, sum_coverage, verify_tiling

__version__ = "0.1.0"

__all__ = [
    "BoxedSet",
    "BudgetExceededError",
    "CyclotomicSum",
    "DiagonalPair",
    "GroupElement",
    "GroupSpec",
    "PointSet",
    "SpectrumCertificate",
    "TilingCertificate",
    "antidiagonal_transversal_check",
    "are_orthogonal",
    "box_product",
    "char_sum_on_set",
    "character_pairing",
    "check_diagonal_spectral",
    "cyclotomic_poly",
    "diagonal_subgroup",
    "find_complement",
    "find_spectrum",
    "lift",
    "parse_group_spec",
    "product_group",
    "product_lift_identity",
    "product_with_diagonal",
    "run_agreement_harness",
    "spectral_in_quotient",
    "sum_coverage",
    "sum_multiset_check",
    "tiling_product_pipeline",
    "to_quotient",
    "verify_spectral_pair",
    "verify_tiling",
]
