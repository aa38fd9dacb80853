"""Shifted Hankel matrices and three independent exact determinant engines.

A matrix built from ``HankelSpec(family, shift, size)`` has entries
a_{shift+i+j}; because every family is zero at negative indices, a negative
shift produces a triangle of zeros in the upper left corner.  Determinants
are computed by

* cofactor expansion (small sizes only; the independent oracle),
* fraction-free elimination (the workhorse; every interior division exact),
* iterated condensation (fails soft when an interior minor vanishes, which
  backward shifts make common).

On a matrix with a nonconstant entry both fraction-free engines compute
each exact update (a*d - b*c) / e as one packed big-int expression
(:func:`~hankelshift.ring.cross_quotient`).

The default dispatch runs polynomial matrices on elimination and tries
condensation first on integer ones.

Engines never approximate: any disagreement between them is a bug and is
raised loudly by :func:`cross_check`.  :func:`leading_minors` reads a whole
row d(0..N) off the pivots of one elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Iterator, Sequence, TypeVar

from .errors import (
    CondensationUnavailable,
    DimensionTooLarge,
    EngineDisagreement,
    NonExactDivision,
)
from .ring import Poly, cross_quotient, schoolbook_cross_quotient, sign_choose2
from .sequences import SequenceFamily

COFACTOR = "cofactor"
BAREISS = "bareiss"
CONDENSATION = "condensation"
AUTO = "auto"

ENGINES = (COFACTOR, BAREISS, CONDENSATION)

#: Cofactor expansion is the cross-check oracle, not a production engine.
COFACTOR_LIMIT = 8


@dataclass(frozen=True)
class HankelSpec:
    """A determinant request: family, diagonal shift (may be negative), size."""

    family: SequenceFamily
    shift: int
    size: int

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("size must be >= 0")


class Matrix:
    """Immutable square grid of Poly entries."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Poly]]) -> None:
        grid = tuple(tuple(row) for row in rows)
        for row in grid:
            if len(row) != len(grid):
                raise ValueError("matrix must be square")
        self.rows = grid

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Poly:
        return self.rows[i][j]

    @property
    def all_constant(self) -> bool:
        return all(e.is_constant for row in self.rows for e in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(e) for e in row) for row in self.rows)
        return f"Matrix({self.n}x{self.n}: {body})"


@dataclass(frozen=True)
class DetResult:
    """Exact determinant value plus which engine produced it."""

    value: Poly
    engine: str
    spec: HankelSpec


def build(spec: HankelSpec) -> Matrix:
    """Materialize the Hankel matrix (a_{shift+i+j})_{i,j=0..size-1}."""
    family, shift, n = spec.family, spec.shift, spec.size
    band = [family.term(shift + s) for s in range(max(0, 2 * n - 1))]
    return Matrix([[band[i + j] for j in range(n)] for i in range(n)])


def det_cofactor(matrix: Matrix) -> Poly:
    """Laplace expansion along the first rows, memoized on column subsets.

    Guarded to 8x8: the subset table has 2^n entries and this engine exists
    only to cross-check the others.
    """
    n = matrix.n
    if n > COFACTOR_LIMIT:
        raise DimensionTooLarge(f"cofactor expansion guarded to {COFACTOR_LIMIT}x{COFACTOR_LIMIT}, got {n}")
    if n == 0:
        return Poly.const(1)
    cache: dict[tuple[int, ...], Poly] = {}

    def expand(cols: tuple[int, ...]) -> Poly:
        row = n - len(cols)
        if len(cols) == 1:
            return matrix.entry(row, cols[0])
        cached = cache.get(cols)
        if cached is not None:
            return cached
        acc = Poly()
        for pos, col in enumerate(cols):
            pivot = matrix.entry(row, col)
            if pivot.is_zero:
                continue
            sub = expand(cols[:pos] + cols[pos + 1:])
            prod = pivot * sub
            acc = acc - prod if pos & 1 else acc + prod
        cache[cols] = acc
        return acc

    return expand(tuple(range(n)))


T = TypeVar("T")


def _eliminate(grid: list[list[T]], one: T, zero: T,
               step: Callable[[], Callable[[T, T, T, T, T], T]]) -> Iterator[T]:
    """Fraction-free elimination over any exact ring, in place.

    ``step()`` gives the entry function of one elimination step, which maps
    (pivot, a_ij, a_ik, a_kj, previous pivot) to the exact quotient
    (pivot*a_ij - a_ik*a_kj) / previous pivot.  Yields the pivot of each
    step as the step finds it and, last, the determinant.  Rows are swapped
    only past a zero pivot, so the values up to and including the first zero
    are the leading principal minors d(1), d(2), ... of the grid as given.
    """
    n = len(grid)
    sign = 1
    prev = one
    for k in range(n - 1):
        yield grid[k][k]
        if grid[k][k] == zero:
            for r in range(k + 1, n):
                if grid[r][k] != zero:
                    grid[k], grid[r] = grid[r], grid[k]
                    sign = -sign
                    break
            else:
                return
        pivot = grid[k][k]
        entry = step()
        row_k = grid[k]
        for i in range(k + 1, n):
            row_i, lead = grid[i], grid[i][k]
            for j in range(k + 1, n):
                row_i[j] = entry(pivot, row_i[j], lead, row_k[j], prev)
        prev = pivot
    result = grid[-1][-1]
    yield result if sign == 1 else -result


def _int_cross_quotient(a: int, d: int, b: int, c: int, e: int) -> int:
    q, r = divmod(a * d - b * c, e)
    if r:
        raise NonExactDivision(f"{a * d - b * c} is not divisible by {e}")
    return q


def _int_pivots(matrix: Matrix) -> Iterator[Poly]:
    grid = [[e.constant for e in row] for row in matrix.rows]
    return map(Poly.const, _eliminate(grid, 1, 0, lambda: _int_cross_quotient))


def _poly_pivots(matrix: Matrix) -> Iterator[Poly]:
    """The pivots over Poly; each step's updates share one memo of packed operands."""
    grid = [list(row) for row in matrix.rows]
    return _eliminate(grid, Poly.const(1), Poly(), lambda: partial(cross_quotient, {}))


def _pivots(matrix: Matrix) -> Iterator[Poly]:
    """The values of :func:`_eliminate` on a nonempty matrix.

    All-constant matrices take a pure-int path; the generic path runs the
    identical algorithm over Poly, and the two are tested bit-identical.
    """
    return _int_pivots(matrix) if matrix.all_constant else _poly_pivots(matrix)


def det_bareiss(matrix: Matrix) -> Poly:
    """Exact determinant by fraction-free elimination."""
    if matrix.n == 0:
        return Poly.const(1)
    *_, value = _pivots(matrix)
    return value


def leading_minors(spec: HankelSpec) -> list[Poly]:
    """[d(0), d(1), ..., d(size)] at ``spec.shift``, from one elimination of ``build(spec)``.

    d(n) is the n-th leading principal minor of the size-N matrix, and
    fraction-free elimination meets each one as a pivot.  When row 0 starts
    with z zeros (z = -shift at every backward shift of the families here),
    d(1) .. d(z) vanish and rows 0..z are reversed before eliminating: their
    leading block becomes triangular with the first nonzero term on the
    diagonal, and every larger leading block holds all of them, so its
    pivot is (-1)^C(z+1,2) d(n).  Past the first vanishing minor the
    elimination would swap rows, so each remaining size gets its own
    :func:`det_bareiss`.
    """
    rows = build(spec).rows
    z = next((j for j in range(spec.size) if not rows[0][j].is_zero), spec.size)
    minors = [Poly.const(1)] + [Poly()] * z
    if z < spec.size:
        sign = sign_choose2(z + 1)
        for pivot in islice(_pivots(Matrix(rows[z::-1] + rows[z + 1:])), z, None):
            minors.append(pivot if sign == 1 else -pivot)
            if pivot.is_zero:
                break
    for n in range(len(minors), spec.size + 1):
        minors.append(det_bareiss(build(HankelSpec(spec.family, spec.shift, n))))
    return minors


def det_condensation(matrix: Matrix) -> Poly | None:
    """Exact determinant by iterated condensation, or None when blocked.

    Each layer entry is a contiguous minor of the original matrix, computed
    as a 2x2 determinant of the previous layer divided by the interior of
    the layer before that.  A zero interior minor makes the exact division
    impossible; that is reported as unavailability, never as an error, and
    is found before any update divides by it.  Updates pack (one memo per
    layer) unless every entry is constant.
    """
    n = matrix.n
    if n == 0:
        return Poly.const(1)
    constant = matrix.all_constant
    one = Poly.const(1)
    prev = [[one] * (n + 1) for _ in range(n + 1)]
    cur = [list(row) for row in matrix.rows]
    while len(cur) > 1:
        m = len(cur) - 1
        entry = schoolbook_cross_quotient if constant else partial(cross_quotient, {})
        nxt = []
        for i in range(m):
            row = []
            for j in range(m):
                divisor = prev[i + 1][j + 1]
                if divisor.is_zero:
                    return None
                row.append(entry(cur[i][j], cur[i + 1][j + 1], cur[i][j + 1], cur[i + 1][j], divisor))
            nxt.append(row)
        prev, cur = cur, nxt
    return cur[0][0]


def det(spec: HankelSpec, engine: str = AUTO) -> DetResult:
    """Determinant of the matrix a spec denotes.

    The default dispatch sends a matrix with a nonconstant entry straight to
    elimination.  An all-constant matrix tries condensation first and falls
    back to elimination when a zero interior minor blocks it.  Naming one of
    the engines forces that engine (condensation then raises if
    unavailable).
    """
    matrix = build(spec)
    if engine == AUTO:
        if not matrix.all_constant:
            return DetResult(det_bareiss(matrix), BAREISS, spec)
        value = det_condensation(matrix)
        if value is not None:
            return DetResult(value, CONDENSATION, spec)
        return DetResult(det_bareiss(matrix), BAREISS, spec)
    if engine == BAREISS:
        return DetResult(det_bareiss(matrix), BAREISS, spec)
    if engine == COFACTOR:
        return DetResult(det_cofactor(matrix), COFACTOR, spec)
    if engine == CONDENSATION:
        value = det_condensation(matrix)
        if value is None:
            raise CondensationUnavailable(f"zero interior minor while condensing {spec}")
        return DetResult(value, CONDENSATION, spec)
    raise ValueError(f"unknown engine {engine!r}")


def cross_check(spec: HankelSpec) -> DetResult:
    """Run every applicable engine on one spec and insist on exact agreement."""
    matrix = build(spec)
    results: dict[str, Poly] = {BAREISS: det_bareiss(matrix)}
    if spec.size <= COFACTOR_LIMIT:
        results[COFACTOR] = det_cofactor(matrix)
    cond = det_condensation(matrix)
    if cond is not None:
        results[CONDENSATION] = cond
    if len(set(results.values())) > 1:
        shown = {name: str(value) for name, value in results.items()}
        raise EngineDisagreement(f"engines disagree on {spec}: {shown}", results)
    engine = CONDENSATION if cond is not None else BAREISS
    return DetResult(results[engine], engine, spec)
