"""Exact Hankel determinants of shifted Catalan-type sequences.

The package computes Hankel determinants d_m(n) = det(a_{m+i+j}) for
negative as well as positive shifts m (sequences are extended by zero to
negative indices), evaluates the known closed forms for them, and machine
checks those claims over finite grids.  All arithmetic is exact: arbitrary
precision integers, integer polynomials in t, truncated power series in x.

The top level holds what the demos and the README use; everything else
lives in its submodule (``ring``, ``sequences``, ``hankel``,
``closed_forms``, ``verify``, ``errors``, ``cli``).
"""

from .errors import ExactComputationError
from .ring import Poly, Series
from .sequences import (
    Catalan,
    CentralBinomial,
    ConvCatalan,
    MNumbers,
    NarayanaB,
    NarayanaC,
)
from .hankel import (
    HankelSpec,
    build,
    cross_check,
    det,
    det_bareiss,
    det_cofactor,
    det_condensation,
    leading_minors,
)
from .closed_forms import (
    forward_catalan_det,
    narayana_forward_det,
    narayana_forward_det_recursive,
    predict_backward,
    reflection_check,
)
from .verify import GridRange, Report, verify_claim

__version__ = "0.1.0"

__all__ = [
    "Catalan",
    "CentralBinomial",
    "ConvCatalan",
    "ExactComputationError",
    "GridRange",
    "HankelSpec",
    "MNumbers",
    "NarayanaB",
    "NarayanaC",
    "Poly",
    "Report",
    "Series",
    "build",
    "cross_check",
    "det",
    "det_bareiss",
    "det_cofactor",
    "det_condensation",
    "forward_catalan_det",
    "leading_minors",
    "narayana_forward_det",
    "narayana_forward_det_recursive",
    "predict_backward",
    "reflection_check",
    "verify_claim",
]
