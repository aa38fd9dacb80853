"""Machine verification of determinant claims over explicit finite grids.

Every claim is one entry of :data:`CLAIMS`: summary, proven or not, default
grid, accepted k values and a cell walk; the walk varies the axes its default
grid spans.  A walk yields each cell's
parameters, expected value and the :class:`~hankelshift.hankel.HankelSpec`
whose determinant should equal it.  :func:`verify_claim`, the single entry
point, is the only place that determinant is computed.  Expectations come
from :mod:`hankelshift.closed_forms`, from the recorded pattern formulas,
or from determinants of *different* specs when the claim relates two, so
expected and actual values share no code path, with two exceptions: the
t8 and t9 expectations come from the Narayana recursion, which runs
``hankel._condense`` and ``ring.cross_quotient``, while the actual side runs
``cross_quotient`` on polynomial matrices and ``_condense`` on constant ones;
and c10 relates two determinants, so both sides run the whole
``hankel.det`` stack by design: it states its conjecture through
:func:`~hankelshift.closed_forms.backward_shape`, the theorems' shape.

Proven claims (ids ``t1``, ``t6``, ``t7``, ``t8``, ``t9``) must pass on any
grid; a failing cell there is a bug.  The conjectured claims (``c10``,
``c11``, ``c12``, ``patterns``) are range checks only, and their reports say
so explicitly: agreement over a finite grid proves nothing beyond it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator

from . import closed_forms, hankel
from .errors import IdentityViolation, NonIntegerResult
from .hankel import HankelSpec
from .ring import Poly, choose2_parity
from .sequences import (
    Catalan,
    CentralBinomial,
    ConvCatalan,
    MNumbers,
    NarayanaB,
    NarayanaC,
)


@dataclass(frozen=True)
class GridRange:
    """Explicit finite parameter grid; every bound is echoed in the report."""

    m_min: int = 0
    m_max: int = 0
    n_max: int = 0
    k_list: tuple[int, ...] = ()
    b_list: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        return {**asdict(self), "k_list": list(self.k_list), "b_list": list(self.b_list)}

    @classmethod
    def from_dict(cls, data: dict) -> GridRange:
        return cls(data["m_min"], data["m_max"], data["n_max"],
                   tuple(data["k_list"]), tuple(data["b_list"]))


_PARAM_ORDER = ("k", "b", "m", "n")
Params = tuple[tuple[str, int], ...]


def _params(**values: int | None) -> Params:
    return tuple((name, values[name]) for name in _PARAM_ORDER if values.get(name) is not None)


@dataclass(frozen=True)
class Cell:
    """One grid point: expectation against computed determinant."""

    params: Params
    expected: Poly
    actual: Poly

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    def param(self, name: str) -> int | None:
        return dict(self.params).get(name)

    def sort_key(self) -> tuple[int, int, int, int]:
        d = dict(self.params)
        return tuple(d.get(name, 0) for name in _PARAM_ORDER)

    def to_dict(self) -> dict:
        return {
            "params": dict(self.params),
            "expected": str(self.expected),
            "actual": str(self.actual),
            "pass": self.passed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> Cell:
        return cls(_params(**data["params"]), Poly.parse(data["expected"]), Poly.parse(data["actual"]))


@dataclass(frozen=True)
class Report:
    """Outcome of checking one claim over one grid."""

    claim_id: str
    range: GridRange
    cells: tuple[Cell, ...]

    @property
    def all_pass(self) -> bool:
        return all(cell.passed for cell in self.cells)

    @property
    def counterexamples(self) -> tuple[Cell, ...]:
        return tuple(cell for cell in self.cells if not cell.passed)

    @property
    def is_theorem(self) -> bool:
        return self.claim_id in CLAIMS and CLAIMS[self.claim_id].is_theorem

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "range": self.range.to_dict(),
            "cells": [cell.to_dict() for cell in self.cells],
            "all_pass": self.all_pass,
            "counterexamples": [cell.to_dict() for cell in self.counterexamples],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> Report:
        return cls(
            claim_id=data["claim_id"],
            range=GridRange.from_dict(data["range"]),
            cells=tuple(Cell.from_dict(c) for c in data["cells"]),
        )

    @classmethod
    def from_json(cls, text: str) -> Report:
        return cls.from_dict(json.loads(text))

    def render_text(self) -> str:
        g = self.range
        verdict = "PASS" if self.all_pass else "FAIL"
        lines = [f"claim {self.claim_id}: {verdict} ({len(self.cells)} cells)"]
        if self.claim_id in CLAIMS:
            lines.append(f"claim: {CLAIMS[self.claim_id].summary}")
        bounds = [f"m in [{g.m_min}, {g.m_max}]", f"n <= {g.n_max}"]
        if g.k_list:
            bounds.append(f"k in {list(g.k_list)}")
        if g.b_list:
            bounds.append(f"b in {list(g.b_list)}")
        lines.append("range: " + ", ".join(bounds))
        if not self.is_theorem:
            lines.append(
                "note: conjecture checked over the stated finite range only; "
                "agreement here is evidence, not proof."
            )
        if self.counterexamples:
            lines.append(f"counterexamples ({len(self.counterexamples)}):")
            for cell in self.counterexamples:
                shown = ", ".join(f"{k}={v}" for k, v in cell.params)
                lines.append(f"  {shown}: expected {cell.expected}, got {cell.actual}")
        else:
            lines.append("counterexamples: none")
        return "\n".join(lines)


# A walk is given the grid resolve_grid returned, so its m range is already clamped.
Walk = Callable[[GridRange], Iterator[tuple[Params, Poly, HankelSpec]]]


def _backward(families: Callable[[GridRange], list], reflect: bool = False) -> Walk:
    """Walk of a proven claim over the (b or None, family) pairs ``families(grid)``.

    With ``reflect`` (Catalan values) the prediction must also equal the
    reflected product formula evaluated directly at -n; the two are one
    identity, so a mismatch is an internal bug and raised, not reported.
    """
    def walk(grid: GridRange):
        for b, family in families(grid):
            for m in range(grid.m_min, grid.m_max + 1):
                for n in range(grid.n_max + 1):
                    prediction = closed_forms.predict_backward(family, m, n)
                    if reflect and prediction.value != closed_forms.forward_catalan_det(m + 1, -n):
                        raise IdentityViolation(
                            f"reflection and signed-forward forms disagree at m={m}, n={n}")
                    yield _params(b=b, m=m, n=n), prediction.value, prediction.spec
    return walk


def _arms(grid: GridRange):
    """(k, order, off) of both arms of each k: even (2k, k) and odd (2k-1, k-1).

    Every conjecture shift follows from ``off``; cell parameter ``k`` is the order.
    """
    for k in grid.k_list:
        yield k, 2 * k, k
        yield k, 2 * k - 1, k - 1


def _walk_c10(grid: GridRange):
    """Backward determinants (shift -(m+off-1)) in the backward shape of the
    forward determinants at shift m+1-k; there is no closed form here.
    """
    for k, order, off in _arms(grid):
        family = ConvCatalan(order)
        for m in range(grid.m_min, grid.m_max + 1):
            back = m + off - 1
            for n in range(grid.n_max + 1):
                expected = closed_forms.backward_shape(
                    back, n, lambda r: hankel.det(HankelSpec(family, m + 1 - k, r)).value)
                yield _params(k=order, m=m, n=n), expected, HankelSpec(family, -back, n)


def _units(order: int, off: int) -> tuple[int, Callable[[int], int]]:
    """(period, unit) of an arm at shift 1-off, where unit(a) is c11's value at size a:
    (-1)^(step*q + extra) at a = period*q + r with r a key of the residues, else 0.
    """
    period, step, residues = ((off, choose2_parity(off), {0: 0}) if order % 2 == 0
                              else (order, off, {0: 0, off: choose2_parity(off)}))

    def unit(a: int) -> int:
        q, r = divmod(a, period)
        return (-1 if (step * q + residues[r]) & 1 else 1) if r in residues else 0

    return period, unit


def _walk_c11(grid: GridRange):
    """Unit/zero periodicity of the fully backward diagonal (shift 1-off)."""
    for k, order, off in _arms(grid):
        family = ConvCatalan(order)
        _, unit = _units(order, off)
        for a in range(grid.n_max + 1):
            yield _params(k=order, m=0, n=a), Poly.const(unit(a)), HankelSpec(family, 1 - off, a)


def _walk_c12(grid: GridRange):
    """Near-diagonal determinants (shift m+1-off) against signed powers, 0 <= m <= k.

    At the sizes a = period*q + off mod period the value is c11's unit at a
    times (q+1)^m, and on the odd arm also times order^m.  At k=1 the even
    arm is the two classical forward identities (1 at m=0, n+1 at m=1).
    """
    for k, order, off in _arms(grid):
        family = ConvCatalan(order)
        period, unit = _units(order, off)
        scale = 1 if order % 2 == 0 else order
        for m in range(grid.m_min, min(k, grid.m_max) + 1):
            for q, a in enumerate(range(off % period, grid.n_max + 1, period)):
                expected = Poly.const(unit(a) * (scale * (q + 1)) ** m)
                yield _params(k=order, m=m, n=a), expected, HankelSpec(family, m + 1 - off, a)


# Shift-0 determinant of ConvCatalan(k) at size a = period*q + r: the period
# and the values for r = 0, 1, ..., in terms of q and s = (-1)^q.  The
# rational constants (3/2, 7/6) are multiplied out over Fraction and
# asserted integral, mirroring the product-formula strategy.
_PATTERNS = {
    3: (3, lambda q, s: (s, s, 0)),
    4: (2, lambda q, s: (s * (q + 1), s * (q + 1))),
    5: (5, lambda q, s: (1, 1, -5 * (q + 1), 0, 5 * (q + 1))),
    6: (3, lambda q, s: (s * (q + 1) ** 2, s * (q + 1) ** 2,
                         -s * Fraction(3, 2) * (1 + q) * (2 + q) * (3 + 2 * q))),
    7: (7, lambda q, s: (s, s, s * Fraction(7, 6) * (1 + q) * (-12 + 49 * q + 98 * q * q),
                         -s * 49 * (q + 1) ** 2, 0, s * 49 * (q + 1) ** 2,
                         s * Fraction(7, 6) * (1 + q) * (282 + 343 * q + 98 * q * q))),
}


def _pattern_expected(k: int, a: int) -> int:
    """Value the shift-0 determinant of order k should take at size a."""
    period, values = _PATTERNS[k]
    q, r = divmod(a, period)
    value = Fraction(values(q, -1 if q & 1 else 1)[r])
    if value.denominator != 1:
        raise NonIntegerResult(f"pattern value for k={k}, size {a} is {value}")
    return int(value)


def _walk_patterns(grid: GridRange):
    """The recorded residue-class formulas at shift 0, one order k at a time."""
    for k in grid.k_list:
        family = ConvCatalan(k)
        for a in range(grid.n_max + 1):
            expected = Poly.const(_pattern_expected(k, a))
            yield _params(k=k, m=0, n=a), expected, HankelSpec(family, 0, a)


@dataclass(frozen=True)
class Claim:
    """One claim: what it states, where it is checked by default, how to walk a grid."""

    summary: str
    is_theorem: bool
    default: GridRange
    walk: Walk
    # Accepted k values as (lowest, highest or None); None when k is unused.
    k_domain: tuple[int, int | None] | None = None
    # True when the walk takes only m <= k, so m_max is capped at the largest k.
    m_up_to_k: bool = False


_CONV = GridRange(m_min=0, m_max=3, n_max=15, k_list=(1, 2, 3, 4))

CLAIMS: dict[str, Claim] = {
    "t1": Claim("backward Catalan determinants equal the reflected product formula",
                True, GridRange(m_min=1, m_max=5, n_max=25),
                _backward(lambda grid: [(None, Catalan())], reflect=True)),
    "t6": Claim("backward M-number determinants are b-independent and equal the Catalan ones",
                True, GridRange(m_min=1, m_max=4, n_max=15, b_list=(-2, -1, 0, 1, 2, 3)),
                _backward(lambda grid: [(b, MNumbers(b)) for b in grid.b_list], reflect=True)),
    "t7": Claim("backward central-binomial determinants carry an extra factor 2^(n-m-1)",
                True, GridRange(m_min=1, m_max=4, n_max=15),
                _backward(lambda grid: [(None, CentralBinomial())])),
    "t8": Claim("backward Narayana determinants equal signed t-power times forward values",
                True, GridRange(m_min=1, m_max=3, n_max=10),
                _backward(lambda grid: [(None, NarayanaC())])),
    "t9": Claim("backward type-B Narayana determinants scale the same way by (2t)^(n-m-1)",
                True, GridRange(m_min=1, m_max=3, n_max=10),
                _backward(lambda grid: [(None, NarayanaB())])),
    "c10": Claim("backward convolution-power determinants mirror forward ones (conjecture)",
                 False, _CONV, _walk_c10, k_domain=(1, None)),
    "c11": Claim("diagonal convolution-power determinants are unit/zero periodic (conjecture)",
                 False, replace(_CONV, m_max=0), _walk_c11, k_domain=(1, None)),
    "c12": Claim("near-diagonal convolution-power determinants grow like (n+1)^m (conjecture)",
                 False, _CONV, _walk_c12, k_domain=(1, None), m_up_to_k=True),
    "patterns": Claim(
        "order-k convolution determinants at shift 0 follow modular patterns (conjecture)",
        False, GridRange(m_min=0, m_max=0, n_max=21, k_list=tuple(_PATTERNS)),
        _walk_patterns, k_domain=(min(_PATTERNS), max(_PATTERNS))),
}


def resolve_grid(claim_id: str, grid: GridRange | None = None) -> GridRange:
    """The grid :func:`verify_claim` walks and echoes for this request.

    No grid means the claim's default grid, an empty k or b list its default
    k or b values.  A claim walks the axes its default grid spans: k and b
    where the default list is non-empty, m where the default m_max is above
    0.  Other axes are cleared (m to [0, 0]), and m runs no wider than the
    walk does: from the default m_min, and for c12 up to the largest k.  Raises
    ValueError for an unknown claim, a k or b value listed twice, a k
    outside the claim's domain or a grid whose walk yields no
    cell (an empty m or n range, or an m_min above every k for c12, which
    walks m <= k), before any determinant is computed: each walk's first
    cell comes from a formula.
    """
    if claim_id not in CLAIMS:
        raise ValueError(f"unknown claim {claim_id!r}")
    claim = CLAIMS[claim_id]
    default = claim.default
    grid = default if grid is None else grid
    grid = replace(grid, k_list=default.k_list and (grid.k_list or default.k_list),
                   b_list=default.b_list and (grid.b_list or default.b_list))
    if default.m_max > 0:
        grid = replace(grid, m_min=max(grid.m_min, default.m_min))
    else:
        grid = replace(grid, m_min=0, m_max=0)
    for axis, values in (("k", grid.k_list), ("b", grid.b_list)):
        if len(set(values)) < len(values):
            raise ValueError(f"claim {claim_id} lists a {axis} value more than once: {list(values)}")
    if claim.k_domain is not None:
        low, high = claim.k_domain
        for k in grid.k_list:
            if k < low or (high is not None and k > high):
                allowed = f"k >= {low}" if high is None else f"k in {low}..{high}"
                raise ValueError(f"claim {claim_id} takes {allowed}, got k={k}")
    if next(claim.walk(grid), None) is None:
        raise ValueError(f"claim {claim_id} has an empty grid: "
                         f"m in [{grid.m_min}, {grid.m_max}], n <= {grid.n_max}")
    if claim.m_up_to_k:
        grid = replace(grid, m_max=min(grid.m_max, max(grid.k_list)))
    return grid


def verify_claim(claim_id: str, grid: GridRange | None = None) -> Report:
    """Check one claim over a grid (its default grid unless one is given).

    Each cell's actual value is ``hankel.det(spec).value`` of the spec its walk yielded.
    """
    grid = resolve_grid(claim_id, grid)
    cells = [
        Cell(params, expected, hankel.det(spec).value)
        for params, expected, spec in CLAIMS[claim_id].walk(grid)
    ]
    # Deterministic cell order regardless of how the grid was walked.
    cells.sort(key=Cell.sort_key)
    return Report(claim_id, grid, tuple(cells))
