"""Closed-form prediction tests."""

from fractions import Fraction

import pytest

from hankelshift import (
    Catalan,
    CentralBinomial,
    ConvCatalan,
    HankelSpec,
    MNumbers,
    NarayanaB,
    NarayanaC,
    Poly,
    det,
    forward_catalan_det,
    narayana_forward_det,
    narayana_forward_det_recursive,
    predict_backward,
    reflection_check,
)
from hankelshift import hankel
from hankelshift.closed_forms import backward_shape
from hankelshift.errors import NonIntegerResult, UnsupportedFamily, ZeroDivisorEncountered
from hankelshift.ring import sign_choose2
from hankelshift.sequences import catalan_number

from anchors import DET_NARAYANA_FWD


def test_forward_catalan_det_examples():
    assert forward_catalan_det(2, 4) == 5
    assert forward_catalan_det(0, 7) == 1
    assert forward_catalan_det(1, 7) == 1
    assert forward_catalan_det(4, 1) == 14
    assert forward_catalan_det(2, -4) == -3


def test_forward_catalan_det_preconditions_and_integrality():
    with pytest.raises(ValueError):
        forward_catalan_det(-1, 3)
    # The product is integral at every integer n; at n = 1/2 and m = 3 it is 5/2.
    with pytest.raises(NonIntegerResult, match="5/2"):
        forward_catalan_det(3, Fraction(1, 2))


def test_forward_catalan_det_at_one_is_catalan():
    for m in range(13):
        assert forward_catalan_det(m, 1) == catalan_number(m)


def test_forward_catalan_det_satisfies_recursion():
    for m in range(9):
        for n in range(1, 9):
            lhs = (forward_catalan_det(m, n - 1) * forward_catalan_det(m + 2, n - 1)
                   - forward_catalan_det(m + 1, n - 1) ** 2)
            rhs = forward_catalan_det(m, n) * forward_catalan_det(m + 2, n - 2)
            assert lhs == rhs, (m, n)


def test_reflection_check_examples():
    assert reflection_check(1, 4)
    assert forward_catalan_det(2, -4) == -3 == -forward_catalan_det(2, 2)
    assert reflection_check(2, 4)
    assert forward_catalan_det(3, -4) == -5 == -forward_catalan_det(3, 1)
    assert reflection_check(3, 4)
    assert forward_catalan_det(4, -4) == 1 == forward_catalan_det(4, 0)


def test_reflection_check_grid():
    for m in range(1, 6):
        for n in range(m + 1, 21):
            assert reflection_check(m, n), (m, n)


def test_reflection_check_preconditions():
    with pytest.raises(ValueError):
        reflection_check(0, 5)
    with pytest.raises(ValueError):
        reflection_check(3, 3)


def test_narayana_forward_det_examples():
    assert narayana_forward_det(2, 2) == Poly((0, 1, 1, 1))
    for m in range(6):
        assert narayana_forward_det(m, 0) == 1
    assert narayana_forward_det(3, 2) == Poly((0, 1, 3, 6, 3, 1))


def test_narayana_forward_det_rows_against_known_lists():
    for m, row in DET_NARAYANA_FWD.items():
        for n, want in enumerate(row):
            assert narayana_forward_det(m, n) == want, (m, n)


def test_narayana_recursion_examples():
    assert narayana_forward_det_recursive(1, 3) == Poly.monomial(3)
    assert narayana_forward_det_recursive(2, 3) == Poly((0, 0, 0, 1, 1, 1, 1))
    assert narayana_forward_det_recursive(4, 1) == Poly((1, 6, 6, 1))


def test_narayana_low_rows_are_powers_of_t():
    # rows 0 and 1 are pure monomials t^C(n,2)
    for m in (0, 1):
        for n in range(7):
            want = Poly.monomial(n * (n - 1) // 2)
            assert narayana_forward_det_recursive(m, n) == want


def test_narayana_routes_agree_and_specialize():
    for m in range(6):
        for n in range(7):
            by_det = narayana_forward_det(m, n)
            by_rec = narayana_forward_det_recursive(m, n)
            assert by_det == by_rec, (m, n)
            assert by_det(1) == forward_catalan_det(m, n), (m, n)


def test_recursion_raises_when_a_divisor_vanishes(monkeypatch):
    monkeypatch.setattr(hankel, "_condense", lambda band: None)
    with pytest.raises(ZeroDivisorEncountered, match=r"\(m=2, n=3\)"):
        narayana_forward_det_recursive(2, 3)


def test_narayana_predictions_run_no_determinant_engine(monkeypatch):
    specs = [(family, m, n) for family in (NarayanaC(), NarayanaB())
             for m in range(1, 4) for n in range(9)]
    want = [det(HankelSpec(family, -m, n)).value for family, m, n in specs]

    def refuse(*args, **kwargs):
        raise AssertionError("a prediction ran a determinant engine")

    for name in ("det", "det_bareiss", "det_condensation", "det_cofactor", "build"):
        monkeypatch.setattr(hankel, name, refuse)
    assert [predict_backward(*spec).value for spec in specs] == want


def test_predict_backward_examples():
    assert predict_backward(Catalan(), 3, 12).value == 21945
    assert predict_backward(Catalan(), 2, 2).value == Poly()
    assert predict_backward(MNumbers(5), 2, 2).value == Poly()
    assert predict_backward(CentralBinomial(), 1, 4).value == -12
    assert predict_backward(NarayanaB(), 1, 3).value == Poly((0, -2, -2))


def test_predict_backward_spec_points_at_backward_matrix():
    prediction = predict_backward(Catalan(), 2, 7)
    assert prediction.spec == HankelSpec(Catalan(), -2, 7)
    assert "catalan" in prediction.source


def test_predict_backward_rejects_convolution_families():
    with pytest.raises(UnsupportedFamily):
        predict_backward(ConvCatalan(3), 1, 4)


def test_predict_backward_gives_any_family_its_zero_triangle():
    # Up to n = m the shape needs no closed form; past it a convolution power has none.
    assert [predict_backward(ConvCatalan(3), 2, n).value for n in range(3)] == [1, 0, 0]
    with pytest.raises(UnsupportedFamily):
        predict_backward(ConvCatalan(3), 2, 3)


def test_backward_shape_calls_forward_only_past_the_zero_triangle():
    calls = []

    def forward(r):
        calls.append(r)
        return Poly((r, 1))

    # m = -1 is c10's shape on its order-1 arm at m = 0: no zero triangle.
    for m in range(-1, 5):
        for n in range(10):
            calls.clear()
            value = backward_shape(m, n, forward)
            if n == 0:
                assert (value, calls) == (Poly.const(1), []), (m, n)
            elif n <= m:
                assert (value, calls) == (Poly(), []), (m, n)
            else:
                r = n - m - 1
                assert calls == [r], (m, n)
                assert value == sign_choose2(m + 1) * Poly((r, 1)), (m, n)


def test_predict_backward_preconditions():
    with pytest.raises(ValueError):
        predict_backward(Catalan(), 0, 4)
    with pytest.raises(ValueError):
        predict_backward(Catalan(), 1, -1)


def test_prediction_equals_reflected_product_everywhere():
    for m in range(1, 6):
        for n in range(0, 21):
            value = predict_backward(Catalan(), m, n).value
            assert value == forward_catalan_det(m + 1, -n), (m, n)
            if n >= m + 1:
                want = sign_choose2(m + 1) * forward_catalan_det(m + 1, n - m - 1)
                assert value == want


def test_narayana_prediction_at_one_matches_catalan_prediction():
    for m in range(1, 4):
        for n in range(0, 10):
            poly_value = predict_backward(NarayanaC(), m, n).value
            int_value = predict_backward(Catalan(), m, n).value
            assert poly_value(1) == int_value.constant, (m, n)


def test_central_binomial_prediction_against_brute_force():
    # derived anchor: 4x4 cofactor determinant of the shifted central binomials
    assert det(HankelSpec(CentralBinomial(), -1, 4), engine="cofactor").value == -12
    assert predict_backward(CentralBinomial(), 1, 4).value == -12
