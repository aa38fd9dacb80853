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

import importlib

# The public names of each submodule.  A submodule is imported when it or one
# of its names is first looked up here, so that ``hankelshift gen`` starts
# without compiling the determinant and claim modules it never runs.
_EXPORTS = {
    "errors": ("ExactComputationError",),
    "ring": ("Poly", "Series"),
    "sequences": ("Catalan", "CentralBinomial", "ConvCatalan", "MNumbers", "NarayanaB",
                  "NarayanaC"),
    "hankel": ("HankelSpec", "build", "cross_check", "det", "det_bareiss", "det_cofactor",
               "det_condensation", "leading_minors"),
    "closed_forms": ("forward_catalan_det", "narayana_forward_det",
                     "narayana_forward_det_recursive", "predict_backward", "reflection_check"),
    "verify": ("GridRange", "Report", "verify_claim"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _SOURCE:
        return getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
