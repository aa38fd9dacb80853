"""Whole determinant rows d(0..N) from one elimination, against per-size Bareiss."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
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
)
from hankelshift import hankel
from hankelshift.cli import EXIT_OK, main
from hankelshift.hankel import leading_minors
from hankelshift.ring import sign_choose2
from hankelshift.sequences import SequenceFamily

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


def test_forward_catalan_table_runs_one_elimination_per_shift(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("table ran a per-cell determinant")

    monkeypatch.setattr(hankel, "det_condensation", refuse)
    monkeypatch.setattr(hankel, "det", refuse)
    # No forward Catalan minor vanishes, so no size falls back either.
    monkeypatch.setattr(hankel, "det_bareiss", refuse)
    code = main(["table", "--family", "catalan", "--shift", "0", "--shift-max", "4",
                 "--n-max", "9", "--format", "csv"])
    assert code == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    for m, line in zip(range(5), rows):
        assert line.split(",")[1:] == [str(v) for v in DET_CATALAN_FWD[m][:10]], m
