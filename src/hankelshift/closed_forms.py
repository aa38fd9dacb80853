"""Closed-form values for shifted Hankel determinants.

The forward-shift Catalan determinant has the product formula implemented
by :func:`forward_catalan_det`, valid at negative arguments as well, where
it predicts the backward-shift determinants.  The Narayana analogue has no
known product formula; it is pinned down by the condensation recursion
(:func:`narayana_forward_det_recursive`) and, independently, by an actual
determinant (:func:`narayana_forward_det`).  Keeping both routes alive is
deliberate: they cross-validate each other in the test suite.  As both
run the packed kernel, the tests also audit the recursion by evaluation.

Every backward value has the shape :func:`backward_shape`, which
:func:`predict_backward` fills with closed forms and conjecture c10 in
:mod:`~hankelshift.verify` with forward determinants.  Predictions never
evaluate the determinant they predict; that independence is what makes the
verification grids meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import hankel
from .errors import NonIntegerResult, UnsupportedFamily, ZeroDivisorEncountered
from .ring import Poly, sign_choose2
from .sequences import (
    Catalan,
    CentralBinomial,
    MNumbers,
    NarayanaB,
    NarayanaC,
    SequenceFamily,
    narayana_polynomial,
)


def forward_catalan_det(m: int, n: int) -> int:
    """Product formula prod_{1<=i<=j<=m-1} (2n+i+j)/(i+j) as an exact int.

    Empty product (hence 1) for m <= 1.  n may be negative; the product is
    evaluated over rationals and asserted integral, which it always is at
    integer arguments.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    acc = Fraction(1)
    for i in range(1, m):
        for j in range(i, m):
            acc *= Fraction(2 * n + i + j, i + j)
    if acc.denominator != 1:
        raise NonIntegerResult(f"forward_catalan_det({m}, {n}) evaluated to {acc}")
    return int(acc)


def reflection_check(m: int, n: int) -> bool:
    """Does the value at -n equal the signed value at n-m-1?

    Checks forward_catalan_det(m+1, -n) == (-1)^C(m+1,2) *
    forward_catalan_det(m+1, n-m-1); requires n >= m+1 >= 2.
    """
    if m < 1 or n < m + 1:
        raise ValueError("requires m >= 1 and n >= m+1")
    return forward_catalan_det(m + 1, -n) == (
        sign_choose2(m + 1) * forward_catalan_det(m + 1, n - m - 1)
    )


def narayana_forward_det(m: int, n: int) -> Poly:
    """Forward-shift Hankel determinant of the Narayana polynomials.

    This is the designated bridge for t-polynomial predictions: it computes
    a genuine determinant, but always of a forward shift, never of the
    backward matrix a prediction will be compared against.
    """
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    return hankel.det(hankel.HankelSpec(NarayanaC(), m, n)).value


def narayana_forward_det_recursive(m: int, n: int) -> Poly:
    """Same values as :func:`narayana_forward_det`, from the Desnanot-Jacobi
    recursion: the condensation wedge of :mod:`~hankelshift.hankel` on
    N_m, ..., N_{m+2n-2}, called directly, so no determinant engine runs.
    Every divisor is a forward Narayana determinant, so a vanishing one
    would falsify their nonvanishing and is raised, never masked.
    """
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    value = hankel._condense([narayana_polynomial(r) for r in range(m, m + 2 * n - 1)])
    if value is None:
        raise ZeroDivisorEncountered(
            f"a divisor of the recursion for (m={m}, n={n}) vanished; "
            "the recursion requires every one nonzero"
        )
    return value


@dataclass(frozen=True)
class Prediction:
    """A closed-form determinant value, tagged with the spec it predicts."""

    spec: hankel.HankelSpec
    value: Poly
    source: str


def backward_shape(m: int, n: int, forward: Callable[[int], Poly]) -> Poly:
    """Size-n determinant at backward shift -m: 1 at n=0, 0 for 1 <= n <= m
    (the zero triangle), then (-1)^C(m+1,2) forward(n-m-1), called only then.
    """
    if n == 0:
        return Poly.const(1)
    if n <= m:
        return Poly()
    return sign_choose2(m + 1) * forward(n - m - 1)


def predict_backward(family: SequenceFamily, m: int, n: int) -> Prediction:
    """Closed-form value of the size-n backward determinant at shift -m.

    :func:`backward_shape` with a scaled forward value at shift m+1, size r.
    The t-families scale by t^r (type B additionally by 2^r) and use the
    recursion route, so no backward determinant is ever consulted.  Other
    families raise UnsupportedFamily when n > m.
    """
    if m < 1:
        raise ValueError("backward shift magnitude m must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")

    def forward(r: int) -> Poly:
        if isinstance(family, (Catalan, MNumbers)):
            return Poly.const(forward_catalan_det(m + 1, r))
        if isinstance(family, CentralBinomial):
            return Poly.const(2 ** r * forward_catalan_det(m + 1, r))
        if isinstance(family, NarayanaC):
            return Poly.monomial(r) * narayana_forward_det_recursive(m + 1, r)
        if isinstance(family, NarayanaB):
            return Poly.monomial(r, 2 ** r) * narayana_forward_det_recursive(m + 1, r)
        raise UnsupportedFamily(
            f"no proven backward closed form for {family.label}; "
            "convolution powers are covered by the conjecture checks instead"
        )

    return Prediction(hankel.HankelSpec(family, -m, n), backward_shape(m, n, forward),
                      f"backshift closed form [{family.label}]")
