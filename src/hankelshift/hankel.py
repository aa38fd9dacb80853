"""Shifted Hankel matrices and three independent exact determinant engines.

A matrix built from ``HankelSpec(family, shift, size)`` has entries
a_{shift+i+j}; because every family is zero at negative indices, a negative
shift produces a triangle of zeros in the upper left corner.  Determinants
are computed by

* cofactor expansion (small sizes only; the independent oracle),
* fraction-free elimination (the workhorse; every interior division exact),
* condensation, a wedge over the band a_0..a_{2n-2} that the Narayana
  recursion also runs (fails soft when an interior minor vanishes, which
  backward shifts make common).

On a nonconstant input both fraction-free engines compute each exact
update (a*d - b*c) / e as one packed big-int expression
(:func:`~hankelshift.ring.cross_quotient`).

The default dispatch runs polynomial matrices on elimination and tries
condensation first on integer ones.

Engines never approximate: any disagreement between them is a bug and is
raised loudly by :func:`cross_check`.

:func:`leading_minors` reads a whole row d(0..N) off the pivots of one
elimination.  By Sylvester's identity the state after k steps is a matrix
of bordered minors whose leading j x j block has determinant
d(k)^(j-1) d(k+j), so a vanishing d(k+1) opens a look-ahead window up to
the least nonsingular block.  A zero pivot is swapped, rows and columns
alike while the grid is symmetric, with an index inside that block, so
when the window closes the pivot rows are again the leading rows, and each
later pivot is again a leading minor up to sign.  The zero triangle of a
backward shift is the row's first such window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, TypeVar

from .errors import (
    CondensationUnavailable,
    DimensionTooLarge,
    EngineDisagreement,
    NonExactDivision,
)
from .ring import Poly, cross_quotient, schoolbook_cross_quotient
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
    """Immutable square grid of Poly entries; whether every entry is
    constant is decided once, on construction."""

    __slots__ = ("rows", "all_constant")

    def __init__(self, rows: Sequence[Sequence[Poly]]) -> None:
        grid = tuple(tuple(row) for row in rows)
        for row in grid:
            if len(row) != len(grid):
                raise ValueError("matrix must be square")
        self.rows = grid
        self.all_constant = all(e.is_constant for row in grid for e in row)

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Poly:
        return self.rows[i][j]

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
               entry: Callable[[T, T, T, T, T], T]) -> Iterator[T]:
    """Fraction-free elimination over any exact ring, in place.

    ``entry`` maps (pivot, a_ij, a_ik, a_kj, previous pivot) to the exact
    quotient (pivot*a_ij - a_ik*a_kj) / previous pivot.  At a zero pivot k,
    r is the first row below whose entry in column k is nonzero.  While the
    grid is still symmetric (``rows_end <= k``), rows and columns k and s
    are swapped for the first s in k+1..r with a nonzero diagonal entry;
    otherwise rows k and r are.  Yields d(1), ..., d(n), the leading
    principal minors of the grid as given: 0 at each step before
    ``end - 1``, where ``end`` is one past the last index any swap has
    reached (``rows_end`` the same for row swaps alone), and otherwise the
    pivot times the sign of the row swaps (:func:`leading_minors` proves
    it).  Stops after yielding 0 when no later minor is nonzero; it may
    yield another 0 before it stops.

    A symmetric grid costs about half the updates.  After step k the entry
    (i, j), i, j > k, is the bordered minor det A'[{0..k, i}, {0..k, j}] of
    the grid A' with every swap so far applied up front.  A symmetric swap
    is made only while the row swaps have permuted rows 0..k-1 alone, so it
    commutes with them, and A' is P A P^T with its rows 0..``rows_end - 1``
    permuted, P the symmetric swaps.  While ``rows_end <= k + 1`` that
    minor is sign(row swaps) det (P A P^T)[{0..k, i}, {0..k, j}], which a
    symmetric A makes symmetric in i and j.  Such a step computes only
    j >= i and copies (j, i) into (i, j) for j < i.  Symmetric swaps keep
    the grid symmetric through every window, the zero triangle of a
    backward row included, so a size-14 Narayana determinant takes 455
    kernel calls at every shift -4..4, where computing both triangles
    takes 819.  Only a window whose first column has no nonzero diagonal
    entry within reach takes a row swap, and mirrors again from the step
    that closes it.
    """
    n = len(grid)
    symmetric = all(grid[i][j] == grid[j][i] for i in range(n) for j in range(i))
    sign = 1
    prev = one
    end = rows_end = 0
    for k in range(n - 1):
        if grid[k][k] == zero:
            r = next((r for r in range(k + 1, n) if grid[r][k] != zero), None)
            if r is None:
                yield zero
                return
            s = None
            if symmetric and rows_end <= k:
                s = next((s for s in range(k + 1, r + 1) if grid[s][s] != zero), None)
            if s is None:
                grid[k], grid[r] = grid[r], grid[k]
                sign = -sign
                end, rows_end = max(end, r + 1), max(rows_end, r + 1)
            else:
                grid[k], grid[s] = grid[s], grid[k]
                for row in grid[k:]:
                    row[k], row[s] = row[s], row[k]
                end = max(end, s + 1)
        pivot = grid[k][k]
        yield zero if k < end - 1 else (pivot if sign == 1 else -pivot)
        row_k = grid[k]
        mirror = symmetric and rows_end <= k + 1
        for i in range(k + 1, n):
            row_i, lead = grid[i], grid[i][k]
            for j in range(i if mirror else k + 1, n):
                row_i[j] = entry(pivot, row_i[j], lead, row_k[j], prev)
            if mirror:
                row_i[k + 1:i] = [grid[j][i] for j in range(k + 1, i)]
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
    return map(Poly.const, _eliminate(grid, 1, 0, _int_cross_quotient))


def _poly_pivots(matrix: Matrix) -> Iterator[Poly]:
    """The pivots over Poly; each entry keeps its packed operand across the updates it serves."""
    grid = [list(row) for row in matrix.rows]
    return _eliminate(grid, Poly.const(1), Poly(), cross_quotient)


def _pivots(matrix: Matrix) -> Iterator[Poly]:
    """The values of :func:`_eliminate` on a nonempty matrix.

    All-constant matrices take a pure-int path; the generic path runs the
    identical algorithm over Poly, and the two are tested bit-identical.
    """
    pivots = _int_pivots if matrix.all_constant else _poly_pivots
    return pivots(matrix)


def det_bareiss(matrix: Matrix) -> Poly:
    """Exact determinant by fraction-free elimination."""
    if matrix.n == 0:
        return Poly.const(1)
    *_, value = _pivots(matrix)
    return value


def leading_minors(spec: HankelSpec) -> list[Poly]:
    """[d(0), d(1), ..., d(size)] at ``spec.shift``, from one elimination of ``build(spec)``.

    d(n) is the n-th leading principal minor of the size-N matrix A.  After
    k steps of fraction-free elimination without swaps, the entries left
    are the bordered minors G_ij = det A[{0..k-1, i}, {0..k-1, j}] and the
    last pivot is d(k), so each pivot met is the next d(n).  Sylvester's
    identity, on which the elimination rests, gives
    det G[k:k+j, k:k+j] = d(k)^(j-1) d(k+j).

    When d(k+1) = 0 a window opens, up to the least w >= 2 with
    d(k+w) != 0, that is, the least nonsingular block G[k:k+w, k:k+w].  A
    zero pivot inside it has a first nonzero row r below, and r lies in the
    block: the Schur complement of the pivots already taken from the block
    is nonsingular, so its first column is nonzero there.  The pivot comes
    from a symmetric swap with the first s in k+1..r whose diagonal entry
    is nonzero, or from a row swap with r when there is none or the grid is
    no longer symmetric.  s <= r, so every swap permutes indices inside the
    block.  A symmetric swap applies one permutation to rows and columns,
    which changes no bordered minor and does not flip the sign; a row swap
    flips it.  So at any step k' whose swaps so far all permuted indices
    within 0..k', the pivot is d(k'+1) times the sign of the row swaps.  In
    :func:`_eliminate`, ``end`` is one past the last index a swap has
    reached, so the step k+w-1 is such a step and its pivot is d(k+w) up to
    sign.  No earlier step of the window is at or past ``end - 1``, for its
    pivot would then be a nonzero d(k+j) with j < w; those steps yield 0,
    which d(k+1..k+w-1) are.  A zero column below a zero pivot means no
    later minor is nonzero.  A symmetric swap can meet that column one
    step later than a row swap would, so the elimination may yield one more
    0 before it stops; the row is padded with zeros either way.

    A backward shift -z starts the row with z zero minors: its zero triangle
    is the row's first window, of width z + 1 when a_0 != 0.  Its diagonal
    entries are a_{2s-z}, so when a_0 and a_1 are nonzero the first step
    swaps row and column ceil(z/2) to the front instead of moving row z up.

    A Hankel matrix is symmetric, and so is G at every step whose row swaps
    stayed inside the pivot rows, since symmetric swaps keep the grid
    symmetric and the row swaps then change each G_ij by one common sign.
    Steps that hold compute one triangle of G and copy the other: a
    Catalan row at N = 25 takes 2600 integer updates instead of 4900, from
    step 0 at shift 0 and through the zero triangle at shift -8 alike.
    """
    if spec.size == 0:
        return [Poly.const(1)]
    minors = [Poly.const(1)] + list(_pivots(build(spec)))
    return minors + [Poly()] * (spec.size + 1 - len(minors))


def _condense(band: Sequence[Poly]) -> Poly | None:
    """det(a_{i+j})_{i,j<n} of the band a_0..a_{2n-2} by condensation, or
    None when a divisor vanishes.

    The contiguous minor H_r(c) = det(a_{r+i+j})_{i,j<c} depends only on r,
    so layer c holds just H_r(c), r = 0..2(n-c), from Desnanot-Jacobi:
    H_r(c) = (H_r(c-1) H_{r+2}(c-1) - H_{r+1}(c-1)^2) / H_{r+2}(c-2).  A zero
    among a layer's divisors returns None before the layer is computed.
    Updates run on the packed kernel unless every band entry is constant.
    """
    if not band:
        return Poly.const(1)
    entry = schoolbook_cross_quotient if all(e.is_constant for e in band) else cross_quotient
    before, layer = [Poly.const(1)] * len(band), band
    while len(layer) > 1:
        if any(e.is_zero for e in before[2:len(layer)]):
            return None
        before, layer = layer, [entry(layer[r], layer[r + 2], layer[r + 1], layer[r + 1], before[r + 2])
                                for r in range(len(layer) - 2)]
    return layer[0]


def det_condensation(matrix: Matrix) -> Poly | None:
    """Exact determinant of a Hankel matrix by condensation, or None when blocked.

    None comes exactly when a divisor, the contiguous minor of size c at
    anti-diagonal q for some 1 <= c <= n-2 and 2 <= q <= 2(n-c-1), is zero:
    unavailability, never an error, found before any update divides by it.
    Raises ValueError on a matrix that is not Hankel.
    """
    rows, n = matrix.rows, matrix.n
    band = rows[0] + tuple(row[-1] for row in rows[1:]) if n else ()
    if any(row != band[i:i + n] for i, row in enumerate(rows)):
        raise ValueError("condensation takes a Hankel matrix")
    return _condense(band)


def det(spec: HankelSpec, engine: str = AUTO) -> DetResult:
    """Determinant of the matrix a spec denotes.

    The default dispatch sends a matrix with a nonconstant entry straight to
    elimination.  An all-constant matrix tries condensation first and falls
    back to elimination when a zero interior minor blocks it.  Naming one of
    the engines forces that engine (condensation then raises if
    unavailable).  An unknown engine name is refused before any term is made.
    """
    if engine != AUTO and engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    matrix = build(spec)
    if engine == CONDENSATION or (engine == AUTO and matrix.all_constant):
        value = det_condensation(matrix)
        if value is not None:
            return DetResult(value, CONDENSATION)
        if engine == CONDENSATION:
            raise CondensationUnavailable(f"zero interior minor while condensing {spec}")
    if engine == COFACTOR:
        return DetResult(det_cofactor(matrix), COFACTOR)
    return DetResult(det_bareiss(matrix), BAREISS)


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
    return DetResult(results[engine], engine)
