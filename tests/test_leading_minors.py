"""Whole determinant rows d(0..N) from one elimination, against per-size Bareiss."""

import itertools
import shlex
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hankelshift import (
    Catalan,
    CentralBinomial,
    ConvCatalan,
    HankelSpec,
    MNumbers,
    NarayanaB,
    NarayanaC,
    Poly,
    build,
    det_bareiss,
    det_cofactor,
)
from hankelshift import hankel
from hankelshift.cli import EXIT_OK, main
from hankelshift.closed_forms import predict_backward
from hankelshift.hankel import Matrix, _int_pivots, _poly_pivots, leading_minors
from hankelshift.ring import sign_choose2
from hankelshift.sequences import SequenceFamily

from test_golden import golden_path

from anchors import (
    DET_CATALAN_BWD,
    DET_CATALAN_FWD,
    DET_CONV,
    DET_NARAYANA_B_BWD,
    DET_NARAYANA_BWD,
    DET_NARAYANA_FWD,
)

SIX_FAMILIES = [Catalan(), CentralBinomial(), MNumbers(2), NarayanaC(), NarayanaB(),
                ConvCatalan(3)]

PUBLISHED_ROWS = (
    [(Catalan(), m, row) for m, row in {**DET_CATALAN_FWD, **DET_CATALAN_BWD}.items()]
    + [(ConvCatalan(k), m, row) for (k, m), row in DET_CONV.items()]
    + [(NarayanaC(), m, row) for m, row in {**DET_NARAYANA_FWD, **DET_NARAYANA_BWD}.items()]
    + [(NarayanaB(), m, row) for m, row in DET_NARAYANA_B_BWD.items()]
)


def per_size(family, shift, size):
    return [det_bareiss(build(HankelSpec(family, shift, n))) for n in range(size + 1)]


@pytest.mark.parametrize("family, shift, row", PUBLISHED_ROWS,
                         ids=lambda v: getattr(v, "label", str(v))[:12])
def test_published_rows(family, shift, row):
    assert leading_minors(HankelSpec(family, shift, len(row) - 1)) == row


_INT_FAMILIES = st.one_of(
    st.just(Catalan()),
    st.just(CentralBinomial()),
    st.integers(-3, 3).map(MNumbers),
    st.integers(1, 8).map(ConvCatalan),
)
_POLY_FAMILIES = st.sampled_from([NarayanaC(), NarayanaB()])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_rows_match_per_size_bareiss(data):
    polynomial = data.draw(st.booleans())
    family = data.draw(_POLY_FAMILIES if polynomial else _INT_FAMILIES)
    shift = data.draw(st.integers(-10, 10))
    size = data.draw(st.integers(0, 9 if polynomial else 16))
    assert leading_minors(HankelSpec(family, shift, size)) == per_size(family, shift, size)


@pytest.mark.parametrize("family", SIX_FAMILIES, ids=lambda f: f.label)
def test_zero_triangle_and_its_border(family):
    for m in range(1, 11):
        row = leading_minors(HankelSpec(family, -m, m + 1))
        assert row[1:m + 1] == [0] * m, m
        assert row[m + 1] == sign_choose2(m + 1), m


@pytest.mark.parametrize("family, m, size", [
    (Catalan(), 40, 48), (CentralBinomial(), 40, 48), (MNumbers(-2), 40, 48),
    (NarayanaC(), 12, 16), (NarayanaB(), 12, 16), (Catalan(), 120, 130),
], ids=lambda v: getattr(v, "label", str(v)))
def test_deep_backward_rows_match_the_closed_forms(family, m, size):
    """Zero triangles far wider than the property tests draw: first windows of
    width 13 to 121, each row checked against the paper's closed forms."""
    expected = [predict_backward(family, m, n).value for n in range(size + 1)]
    assert leading_minors(HankelSpec(family, -m, size)) == expected


@dataclass(frozen=True)
class ReachesBack(SequenceFamily):
    """Catalan numbers changed at a few indices, -1 among them.

    No family of the package is nonzero at a negative index, so the zero
    triangle of this one is one row shorter than its shift says.
    """

    changes: tuple[tuple[int, int], ...]

    def term(self, n: int) -> Poly:
        return Poly.const(dict(self.changes).get(n, Catalan().term(n).constant))

    @property
    def label(self) -> str:
        return f"reaches-back{self.changes}"


@pytest.mark.parametrize("changes", [((-1, 3),), ((-1, -2), (0, 0)), ((-1, 1), (1, 0), (3, 0))],
                         ids=str)
def test_a_term_at_index_minus_one_is_seen_in_the_band(changes):
    family = ReachesBack(changes)
    for shift in range(-10, 4):
        assert leading_minors(HankelSpec(family, shift, 12)) == per_size(family, shift, 12), shift


# Most conv rows at shifts -5..0 here have a run of one to three vanishing
# minors every few sizes; m-numbers b = -1 at shifts 3, 5 and 7 have one,
# early in the row.  The goldens hold such rows up to size 40.
WINDOW_ROWS = ([(ConvCatalan(k), shift, 20) for k in range(3, 9) for shift in range(-6, 2)]
               + [(MNumbers(-1), shift, 32) for shift in range(1, 8)])


@pytest.mark.parametrize("family, shift, size", WINDOW_ROWS,
                         ids=lambda v: getattr(v, "label", str(v)))
def test_rows_through_zero_windows_match_per_size_bareiss(family, shift, size):
    assert leading_minors(HankelSpec(family, shift, size)) == per_size(family, shift, size)


@pytest.mark.parametrize("k, shift, start, run", [(3, -1, 4, 1), (5, -2, 6, 2), (7, -3, 8, 3)])
def test_first_window_of_each_width(k, shift, start, run):
    """The first interior run of 1, 2 and 3 vanishing minors, a window of width
    run + 1, also in rows that end inside it."""
    row = per_size(ConvCatalan(k), shift, start + run + 1)
    assert row[start:start + run] == [0] * run
    assert row[start - 1] != 0 and row[start + run] != 0
    for size in range(start - 1, start + run + 2):
        assert leading_minors(HankelSpec(ConvCatalan(k), shift, size)) == row[:size + 1], size


# Mostly zeros, so that leading minors vanish in runs and rows end inside
# windows.  Not Hankel, so a zero pivot's column may well have a nonzero
# entry below its window.  The swap still never reaches it: the least
# nonsingular block that closes the window holds a nonzero entry of that
# column, because the Schur complement of the pivots already taken from
# the block is nonsingular, and the swap takes the first nonzero row.
sparse_matrices = st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=n, max_size=n),
    min_size=n, max_size=n))


def assert_pivots_are_the_leading_minors(rows):
    """Both elimination paths against cofactor expansion of each leading block."""
    matrix = Matrix([[Poly.const(v) for v in row] for row in rows])
    expected = [det_cofactor(Matrix([row[:n] for row in matrix.rows[:n]]))
                for n in range(1, matrix.n + 1)]
    for pivots in (_int_pivots, _poly_pivots):
        minors = list(pivots(matrix))
        assert minors + [Poly()] * (matrix.n - len(minors)) == expected, (pivots.__name__, rows)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(sparse_matrices)
# Not symmetric, though its leading 2x2 block is: no step may mirror.
@example([[1, 1, 0, 2], [1, 2, 3, 0], [0, 5, 1, 1], [1, 0, 2, 3]])
def test_look_ahead_elimination_yields_every_leading_minor(rows):
    assert_pivots_are_the_leading_minors(rows)


# Symmetric with a zero diagonal: a zero pivot is left by a symmetric swap
# while the grid is symmetric and a diagonal entry within reach is nonzero,
# and by a row swap otherwise, so both kinds meet in one elimination.
@st.composite
def zero_diagonal_symmetric_matrices(draw):
    n = draw(st.integers(1, 7))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.sampled_from([0, 0, 1, -1, 2]))
    return rows


@settings(max_examples=300, derandomize=True, deadline=None)
@given(zero_diagonal_symmetric_matrices())
def test_symmetric_swaps_keep_every_leading_minor(rows):
    assert_pivots_are_the_leading_minors(rows)


def test_every_3x3_sign_matrix_yields_its_leading_minors():
    for entries in itertools.product((-1, 0, 1), repeat=9):
        assert_pivots_are_the_leading_minors([entries[0:3], entries[3:6], entries[6:9]])


def test_every_symmetric_4x4_zero_one_matrix_yields_its_leading_minors():
    """Symmetric grids compute one triangle of each step whose swaps stayed
    inside the pivot rows; these hold zero pivots, interior windows, windows
    still open at the end and zero columns."""
    upper = [(i, j) for i in range(4) for j in range(i, 4)]
    for entries in itertools.product((0, 1), repeat=len(upper)):
        rows = [[0] * 4 for _ in range(4)]
        for (i, j), v in zip(upper, entries):
            rows[i][j] = rows[j][i] = v
        assert_pivots_are_the_leading_minors(rows)


def counting(monkeypatch, name):
    """Count the calls hankel's elimination makes to its update ``name``."""
    calls = []
    update = getattr(hankel, name)
    monkeypatch.setattr(hankel, name, lambda *args: calls.append(None) or update(*args))
    return calls


@pytest.mark.parametrize("family", [NarayanaC(), NarayanaB()], ids=lambda f: f.label)
@pytest.mark.parametrize("shift", range(-4, 5))
def test_a_hankel_determinant_updates_one_triangle(family, shift, monkeypatch):
    """Both triangles of a size-14 elimination take 1^2 + ... + 13^2 = 819
    updates, one takes 1 + 3 + ... + 91 = 455.  A forward shift mirrors from
    the first step.  A backward shift leaves its zero triangle, the first
    window, by symmetric swaps, so it mirrors from the first step too."""
    calls = counting(monkeypatch, "cross_quotient")
    det_bareiss(build(HankelSpec(family, shift, 14)))
    assert len(calls) == 455


def test_a_forward_integer_row_updates_one_triangle(monkeypatch):
    calls = counting(monkeypatch, "_int_cross_quotient")
    leading_minors(HankelSpec(Catalan(), 0, 25))
    assert len(calls) == sum(m * (m + 1) // 2 for m in range(1, 25))


@pytest.mark.parametrize("family, shift", [(Catalan(), -8), (ConvCatalan(3), 0), (MNumbers(-1), 1)],
                         ids=["catalan--8", "conv3-0", "m-numbers-b-1-1"])
def test_integer_rows_through_windows_update_one_triangle(family, shift, monkeypatch):
    """A backward zero triangle, the interior windows of conv(k=3) at shift 0
    and those of m-numbers b = -1 at shift 1 are all left by symmetric swaps,
    so each row at N = 25 takes the 2600 updates of a forward row."""
    calls = counting(monkeypatch, "_int_cross_quotient")
    leading_minors(HankelSpec(family, shift, 25))
    assert len(calls) == sum(m * (m + 1) // 2 for m in range(1, 25)) == 2600


@dataclass(frozen=True)
class OnePlusTimes(SequenceFamily):
    """(1 + t) conv_k(n): a polynomial family whose rows have zero windows."""

    k: int

    def term(self, n: int) -> Poly:
        return Poly((1, 1)) * ConvCatalan(self.k).term(n)

    @property
    def label(self) -> str:
        return f"(1+t)conv(k={self.k})"


@pytest.mark.parametrize("k", [3, 5, 7])
def test_polynomial_rows_through_zero_windows(k):
    """det((1+t) A_n) = (1+t)^n det A_n, so each Poly row is the integer row scaled."""
    for shift in range(-4, 2):
        integers = leading_minors(HankelSpec(ConvCatalan(k), shift, 16))
        row = leading_minors(HankelSpec(OnePlusTimes(k), shift, 16))
        assert row == [Poly((1, 1)) ** n * v for n, v in enumerate(integers)], shift


def refuse(*args):
    raise AssertionError("table ran a per-cell determinant")


def test_forward_catalan_table_runs_one_elimination_per_shift(monkeypatch, capsys):
    monkeypatch.setattr(hankel, "det_condensation", refuse)
    monkeypatch.setattr(hankel, "det", refuse)
    # No forward Catalan minor vanishes, and a vanishing one opens a window
    # inside the same elimination, so no size gets its own determinant.
    monkeypatch.setattr(hankel, "det_bareiss", refuse)
    code = main(["table", "--family", "catalan", "--shift", "0", "--shift-max", "4",
                 "--n-max", "9", "--format", "csv"])
    assert code == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    for m, line in zip(range(5), rows):
        assert line.split(",")[1:] == [str(v) for v in DET_CATALAN_FWD[m][:10]], m


@pytest.mark.parametrize("family, shift, size", [(Catalan(), -40, 48), (ConvCatalan(5), 0, 25)],
                         ids=lambda v: getattr(v, "label", str(v)))
def test_a_row_is_one_elimination(family, shift, size, monkeypatch):
    """A backward zero triangle and the interior windows of conv(k=5) are
    crossed inside the row's own elimination, with no block eliminated
    again on the side."""
    calls = []
    eliminate = hankel._eliminate
    monkeypatch.setattr(hankel, "_eliminate", lambda *args: calls.append(args) or eliminate(*args))
    leading_minors(HankelSpec(family, shift, size))
    assert len(calls) == 1


@pytest.mark.parametrize("command, shifts", [
    ("table --family conv --k 5 --shift -6 --shift-max 6 --n-max 25 --format csv", 13),
    ("table --family m-numbers --b -1 --shift 1 --shift-max 7 --n-max 40 --format text", 7),
])
def test_tables_with_zero_windows_build_one_matrix_per_shift(command, shifts, monkeypatch, capsys):
    for name in ("det_condensation", "det", "det_bareiss"):
        monkeypatch.setattr(hankel, name, refuse)
    built = []
    build = hankel.build
    monkeypatch.setattr(hankel, "build", lambda spec: built.append(spec) or build(spec))
    assert main(shlex.split(command)) == EXIT_OK
    assert capsys.readouterr().out.encode("utf-8") == golden_path(command).read_bytes()
    assert len(built) == shifts
