"""Exact Hankel determinants of shifted Catalan-type sequences.

The package computes Hankel determinants d_m(n) = det(a_{m+i+j}) for
negative as well as positive shifts m (sequences are extended by zero to
negative indices), evaluates the known closed forms for them, and machine
checks those claims over finite grids.  All arithmetic is exact: arbitrary
precision integers, integer polynomials in t, truncated power series in x.
"""

from .errors import (
    CondensationUnavailable,
    DimensionTooLarge,
    EngineDisagreement,
    ExactComputationError,
    IdentityViolation,
    NonExactDivision,
    NonIntegerResult,
    NonUnitConstantTerm,
    UnsupportedFamily,
    ZeroDivisorEncountered,
)
from .ring import (
    DEFAULT_SERIES_ORDER,
    MINUS_INFINITY,
    Poly,
    Series,
    binomial,
    choose2_parity,
    sign_choose2,
)
from .sequences import (
    Catalan,
    CentralBinomial,
    ConvCatalan,
    MNumbers,
    NarayanaB,
    NarayanaC,
    SequenceFamily,
    catalan_convolution,
    catalan_number,
    m_number,
    narayana_b_polynomial,
    narayana_polynomial,
)
from .hankel import (
    AUTO,
    BAREISS,
    COFACTOR,
    CONDENSATION,
    DetResult,
    HankelSpec,
    Matrix,
    backshift_toeplitz_product,
    build,
    cross_check,
    det,
    det_bareiss,
    det_cofactor,
    det_condensation,
)
from .closed_forms import (
    Prediction,
    forward_catalan_det,
    narayana_forward_det,
    narayana_forward_det_recursive,
    predict_backward,
    reflection_check,
)
from .verify import (
    ALL_CLAIMS,
    Cell,
    GridRange,
    Report,
    verify_claim,
)

__version__ = "0.1.0"

__all__ = [
    "AUTO",
    "ALL_CLAIMS",
    "BAREISS",
    "COFACTOR",
    "CONDENSATION",
    "Catalan",
    "Cell",
    "CentralBinomial",
    "CondensationUnavailable",
    "ConvCatalan",
    "DEFAULT_SERIES_ORDER",
    "DetResult",
    "DimensionTooLarge",
    "EngineDisagreement",
    "ExactComputationError",
    "GridRange",
    "HankelSpec",
    "IdentityViolation",
    "MINUS_INFINITY",
    "MNumbers",
    "Matrix",
    "NarayanaB",
    "NarayanaC",
    "NonExactDivision",
    "NonIntegerResult",
    "NonUnitConstantTerm",
    "Poly",
    "Prediction",
    "Report",
    "SequenceFamily",
    "Series",
    "UnsupportedFamily",
    "ZeroDivisorEncountered",
    "backshift_toeplitz_product",
    "binomial",
    "build",
    "catalan_convolution",
    "catalan_number",
    "choose2_parity",
    "cross_check",
    "det",
    "det_bareiss",
    "det_cofactor",
    "det_condensation",
    "forward_catalan_det",
    "m_number",
    "narayana_b_polynomial",
    "narayana_forward_det",
    "narayana_forward_det_recursive",
    "narayana_polynomial",
    "predict_backward",
    "reflection_check",
    "sign_choose2",
    "verify_claim",
]
