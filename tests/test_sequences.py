"""Sequence family tests: term values, zero extension, series identities."""

import pytest

from hankelshift import (
    Catalan,
    CentralBinomial,
    ConvCatalan,
    MNumbers,
    NarayanaB,
    NarayanaC,
    Poly,
    Series,
)
from hankelshift.ring import binomial
from hankelshift.sequences import catalan_number

from anchors import CATALAN, CENTRAL_BINOMIAL, CONV_POWERS, NARAYANA

ALL_FAMILIES = [
    Catalan(),
    CentralBinomial(),
    MNumbers(-2),
    MNumbers(0),
    MNumbers(2),
    NarayanaC(),
    NarayanaB(),
    ConvCatalan(3),
]


def test_term_examples():
    assert Catalan().term(5) == 42
    assert Catalan().term(-2) == Poly()
    assert MNumbers(2).term(3) == 35
    assert ConvCatalan(3).term(4) == 90
    assert NarayanaC().term(3) == Poly((1, 3, 1))
    assert NarayanaB().term(2) == Poly((1, 4, 1))


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
def test_zero_extension_and_first_term(family):
    for n in range(-5, 0):
        assert family.term(n) == Poly()
    assert family.term(0) == Poly.const(1)


def test_catalan_and_central_binomial_lists():
    assert [Catalan().term(n).constant for n in range(len(CATALAN))] == CATALAN
    got = [CentralBinomial().term(n).constant for n in range(len(CENTRAL_BINOMIAL))]
    assert got == CENTRAL_BINOMIAL


def test_m_numbers_special_cases():
    for n in range(41):
        assert MNumbers(0).term(n) == catalan_number(n)
        assert MNumbers(1).term(n) == catalan_number(n + 1)
        assert MNumbers(2).term(n) == binomial(2 * n + 1, n)


def test_conv_catalan_lists():
    for k, values in CONV_POWERS.items():
        assert [ConvCatalan(k).term(n).constant for n in range(len(values))] == values


def test_conv_catalan_requires_positive_order():
    with pytest.raises(ValueError):
        ConvCatalan(0)


def test_narayana_list():
    for n, value in enumerate(NARAYANA):
        assert NarayanaC().term(n) == value


def test_generating_series_matches_terms():
    s = Catalan().series(5)
    assert [c.constant for c in s.coeffs] == [1, 1, 2, 5, 14]
    s = MNumbers(1).series(5)
    assert [c.constant for c in s.coeffs] == [1, 2, 5, 14, 42]
    s = NarayanaC().series(4)
    assert list(s.coeffs) == NARAYANA[:4]


def test_m_series_functional_equation():
    order = 64
    cat = Catalan().series(order)
    one = Series.one(order)
    for b in (-2, -1, 0, 1, 2, 3):
        mb = MNumbers(b).series(order)
        assert mb * (one - cat.scale(b).mul_x()) == cat


def test_m_series_reciprocal_shape():
    for b in (-1, 0, 2):
        rec = MNumbers(b).series(40).reciprocal()
        assert rec[0] == 1
        assert rec[1] == -(1 + b)
        for n in range(2, 40):
            assert rec[n] == -catalan_number(n - 1)


def test_catalan_functional_equation():
    order = 64
    cat = Catalan().series(order)
    assert cat - Series.one(order) - (cat * cat).mul_x() == Series([0], order=order)


def test_narayana_series_functional_equation():
    order = 64
    nar = NarayanaC().series(order)
    one = Series.one(order)
    t = Poly((0, 1))
    rhs = one + nar.scale(Poly((1, -1))).mul_x() + (nar * nar).scale(t).mul_x()
    assert nar == rhs


def test_narayana_series_reciprocal():
    order = 64
    nar = NarayanaC().series(order)
    t = Poly((0, 1))
    rhs = Series([Poly.const(1), Poly((-1, 1))], order=order) - nar.scale(t).mul_x()
    assert nar.reciprocal() == rhs


def test_narayana_b_series_relation():
    order = 64
    nar = NarayanaC().series(order)
    narb = NarayanaB().series(order)
    factor = Series([Poly.const(1), Poly((-1, 1))], order=order) - nar.scale(Poly((0, 2))).mul_x()
    assert narb * factor == Series.one(order)


def test_t_equals_one_specializations():
    for n in range(41):
        assert NarayanaC().term(n)(1) == catalan_number(n)
        assert NarayanaB().term(n)(1) == binomial(2 * n, n)


def test_conv_catalan_matches_series_power():
    cat = Catalan().series(41)
    for k in range(1, 9):
        powk = cat.pow(k)
        fam = ConvCatalan(k)
        for n in range(41):
            assert fam.term(n) == powk[n]


def test_families_have_value_semantics():
    assert Catalan() == Catalan()
    assert MNumbers(2) == MNumbers(2)
    assert MNumbers(2) != MNumbers(3)
    assert hash(ConvCatalan(4)) == hash(ConvCatalan(4))
