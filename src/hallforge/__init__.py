"""Exact computation in free nilpotent groups over binomial domains.

The package builds Hall bases, multiplies and powers group elements in
Hall coordinates through a truncated-series embedding, derives the
canonical product and power polynomials symbolically, deforms the
top-weight multiplication layer by symmetric 2-cocycles, and extracts the
associated graded Lie ring. All arithmetic is exact (integers, fractions,
and rational-coefficient polynomials); randomized checks use explicit
seeds and are reproducible.
"""

import importlib

from .basis import BasicCommutator, HallBasis, hall_basis
from .canonical import (
    DESK_SCALE_LIMIT,
    CanonicalPolynomials,
    StructurePolynomials,
    associativity_identity_holds,
    derive_hall_polynomials,
    derive_structure_polys,
    to_binomial_basis,
)
from .conventions import convention_header
from .deformation import (
    CocycleReport,
    DeformedGroup,
    PolynomialCocycle,
    check_cocycle,
    coboundary_split,
    product_cocycle,
    zero_cocycle,
)
from .errors import (
    ArityMismatchError,
    BadRankError,
    CocycleViolationError,
    HallforgeError,
    MalformedTailError,
    MixedRingsError,
    NonBinomialError,
    NonIntegerCoefficientError,
    NotGroupLikeError,
    NotInRingError,
    OutOfClassError,
    ScaleLimitError,
    ShapeMismatchError,
    SplitFailureError,
)
from .group import FreeNilpotentGroup, GroupElement
from .lie import (
    BilinearMapData,
    EndoPair,
    GradedLieRing,
    bilinear_from_lie,
    centralizer_line_holds,
    centralizer_weight_kernels,
    compare_graded_lie,
    complete_system_check,
    endo_pair_satisfies,
    endomorphism_pair_space,
    first_difference,
    free_nilpotent_lie,
    lazard_lie_ring,
    weight_two_width,
)
from .oracles import Ut3Oracle, witt_dimension
from .rings import QQ, ZZ, BinomialTable, Poly, PolyRing, Ring
from .series import (
    TruncatedSeries,
    group_commutator_series,
    group_like_inverse,
    series_pow,
)
from .words import (
    Collector,
    commutator_power_identity_holds,
    evaluate_word,
    normalize_word,
    petresco_identity_holds,
    petresco_sequence,
    petresco_tau,
    simple_commutators,
)

__version__ = "0.1.0"

# verify, the largest module, is only needed for the checks: it is imported
# on first use of one of these names
_FROM_VERIFY = ("CheckResult", "run_all")


def __getattr__(name):
    if name == "verify" or name in _FROM_VERIFY:
        verify = importlib.import_module(".verify", __name__)
        return verify if name == "verify" else getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ArityMismatchError",
    "BadRankError",
    "BasicCommutator",
    "BilinearMapData",
    "BinomialTable",
    "CanonicalPolynomials",
    "CheckResult",
    "CocycleReport",
    "CocycleViolationError",
    "Collector",
    "DESK_SCALE_LIMIT",
    "DeformedGroup",
    "EndoPair",
    "FreeNilpotentGroup",
    "GradedLieRing",
    "GroupElement",
    "HallBasis",
    "HallforgeError",
    "MalformedTailError",
    "MixedRingsError",
    "NonBinomialError",
    "NonIntegerCoefficientError",
    "NotGroupLikeError",
    "NotInRingError",
    "OutOfClassError",
    "Poly",
    "PolyRing",
    "PolynomialCocycle",
    "QQ",
    "Ring",
    "ScaleLimitError",
    "ShapeMismatchError",
    "SplitFailureError",
    "StructurePolynomials",
    "TruncatedSeries",
    "Ut3Oracle",
    "ZZ",
    "associativity_identity_holds",
    "bilinear_from_lie",
    "centralizer_line_holds",
    "centralizer_weight_kernels",
    "check_cocycle",
    "coboundary_split",
    "commutator_power_identity_holds",
    "compare_graded_lie",
    "complete_system_check",
    "convention_header",
    "derive_hall_polynomials",
    "derive_structure_polys",
    "endo_pair_satisfies",
    "endomorphism_pair_space",
    "evaluate_word",
    "first_difference",
    "free_nilpotent_lie",
    "group_commutator_series",
    "group_like_inverse",
    "hall_basis",
    "lazard_lie_ring",
    "normalize_word",
    "petresco_identity_holds",
    "petresco_sequence",
    "petresco_tau",
    "product_cocycle",
    "run_all",
    "series_pow",
    "simple_commutators",
    "to_binomial_basis",
    "weight_two_width",
    "witt_dimension",
    "zero_cocycle",
]
