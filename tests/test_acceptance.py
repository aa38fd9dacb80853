"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison in here is exact (integers and polynomials over the
integers); there are no tolerances anywhere.  Conjecture checks are range
checks over the stated finite grids, not proofs, and their reports say so.
"""

import random
import time
from contextlib import contextmanager

from hankelshift import (
    Catalan,
    CentralBinomial,
    ConvCatalan,
    GridRange,
    HankelSpec,
    MNumbers,
    NarayanaB,
    NarayanaC,
    Poly,
    Series,
    cross_check,
    det,
    forward_catalan_det,
    narayana_forward_det,
    narayana_forward_det_recursive,
    predict_backward,
    verify_claim,
)
from hankelshift.ring import binomial, sign_choose2
from hankelshift.sequences import catalan_convolution, catalan_number

from anchors import DET_CONV, DET_NARAYANA_B_BWD, DET_NARAYANA_BWD

ALL_FAMILIES = (
    [Catalan(), CentralBinomial(), NarayanaC(), NarayanaB()]
    + [MNumbers(b) for b in range(-2, 4)]
    + [ConvCatalan(k) for k in range(1, 7)]
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {description}")


def test_criterion_1_backward_catalan_grid():
    with criterion(1, "backward Catalan grid matches both closed forms, under 10 s"):
        started = time.monotonic()
        for m in range(1, 6):
            for n in range(26):
                actual = det(HankelSpec(Catalan(), -m, n)).value
                reflected = forward_catalan_det(m + 1, -n)
                signed = predict_backward(Catalan(), m, n).value
                assert actual == reflected, (m, n)
                assert actual == signed, (m, n)
        row = [det(HankelSpec(Catalan(), -1, n)).value for n in range(6)]
        assert row == [1, 0, -1, -2, -3, -4]
        assert det(HankelSpec(Catalan(), -3, 12)).value == 21945
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"grid took {elapsed:.1f} s"


def test_criterion_2_m_numbers_grid():
    with criterion(2, "backward M-number grid passes and is b-independent"):
        grid = GridRange(m_min=1, m_max=4, n_max=15, b_list=(-2, -1, 0, 1, 2, 3))
        report = verify_claim("t6", grid)
        assert report.all_pass
        by_mn = {}
        for cell in report.cells:
            key = (cell.param("m"), cell.param("n"))
            by_mn.setdefault(key, set()).update({cell.expected, cell.actual})
        assert all(len(values) == 1 for values in by_mn.values())
        assert det(HankelSpec(MNumbers(0), -1, 4)).value == -3
        assert det(HankelSpec(MNumbers(1), -1, 4)).value == -3
        assert det(HankelSpec(MNumbers(0), -2, 4)).value == -5
        assert det(HankelSpec(MNumbers(1), -2, 4)).value == -5


def test_criterion_3_central_binomial_grid():
    with criterion(3, "backward central-binomial grid matches the 2^(n-m-1) scaling"):
        report = verify_claim("t7", GridRange(m_min=1, m_max=4, n_max=15))
        assert report.all_pass
        for m in range(1, 5):
            for n in range(m + 1, 16):
                value = det(HankelSpec(CentralBinomial(), -m, n)).value
                want = (sign_choose2(m + 1) * 2 ** (n - m - 1)
                        * forward_catalan_det(m + 1, n - m - 1))
                assert value == want, (m, n)


def test_criterion_4_narayana_grids():
    with criterion(4, "backward Narayana grids (both types) pass with exact polynomials"):
        grid = GridRange(m_min=1, m_max=3, n_max=10)
        assert verify_claim("t8", grid).all_pass
        assert verify_claim("t9", grid).all_pass
        assert det(HankelSpec(NarayanaC(), -1, 3)).value == Poly((0, -1, -1))
        want = Poly((0, 2)) * Poly((1, 1)) * Poly((1, 5, 1))  # 2t(1+t)(1+5t+t^2)
        assert det(HankelSpec(NarayanaB(), -3, 5)).value == want
        for shift, row in DET_NARAYANA_BWD.items():
            for n, value in enumerate(row):
                assert det(HankelSpec(NarayanaC(), shift, n)).value == value
        for shift, row in DET_NARAYANA_B_BWD.items():
            for n, value in enumerate(row):
                assert det(HankelSpec(NarayanaB(), shift, n)).value == value


def test_criterion_5_conjectures_and_patterns():
    with criterion(5, "conjecture grids and modular patterns pass as range checks"):
        conj_grid = GridRange(m_min=0, m_max=3, n_max=21, k_list=(1, 2, 3, 4))
        for claim in ("c10", "c11", "c12"):
            report = verify_claim(claim, conj_grid)
            assert report.all_pass, claim
            text = report.render_text()
            assert "n <= 21" in text
            assert "not proof" in text
        for k in (3, 4, 5, 6, 7):
            report = verify_claim("patterns", GridRange(n_max=21, k_list=(k,)))
            assert report.all_pass, k
            assert "not proof" in report.render_text()
        for (order, shift), row in DET_CONV.items():
            got = [det(HankelSpec(ConvCatalan(order), shift, n)).value
                   for n in range(len(row))]
            assert got == [Poly.const(v) for v in row], (order, shift)


def test_criterion_6_engine_equivalence():
    with criterion(6, "500 sampled specs: cofactor, elimination, condensation agree"):
        rng = random.Random(20260810)
        for _ in range(500):
            family = rng.choice(ALL_FAMILIES)
            shift = rng.randint(-4, 4)
            size = rng.randint(0, 7)
            cross_check(HankelSpec(family, shift, size))


def test_criterion_7_reciprocal_series_determinants():
    with criterion(7, "near-backward determinants equal signed reciprocal coefficients"):
        for family in ALL_FAMILIES:
            reciprocal = family.series(14).reciprocal()
            for n in range(2, 13):
                value = det(HankelSpec(family, 2 - n, n)).value
                assert value == sign_choose2(n + 1) * reciprocal[n], (family.label, n)


def test_criterion_8_narayana_route_cross_validation():
    with criterion(8, "Narayana forward determinants: matrix and recursion routes agree"):
        for m in range(6):
            for n in range(7):
                by_det = narayana_forward_det(m, n)
                by_rec = narayana_forward_det_recursive(m, n)
                assert by_det == by_rec, (m, n)
                assert by_det(1) == forward_catalan_det(m, n), (m, n)


def test_criterion_9_generating_function_suite():
    with criterion(9, "generating-function identities hold to series order 64"):
        order = 64
        one = Series.one(order)
        t = Poly((0, 1))
        cat = Catalan().series(order)

        assert cat == one + (cat * cat).mul_x()
        square = cat * cat
        for n in range(order - 1):
            assert square[n] == catalan_number(n + 1)
        assert cat.reciprocal() == one - cat.mul_x()

        for b in (-2, -1, 0, 1, 2, 3):
            mb = MNumbers(b).series(order)
            assert mb * (one - cat.scale(b).mul_x()) == cat

        cb = CentralBinomial().series(order)
        assert Series([Poly.const(1), Poly.const(-4)], order=order) * (cb * cb) == one

        nar = NarayanaC().series(order)
        assert nar == one + nar.scale(Poly((1, -1))).mul_x() + (nar * nar).scale(t).mul_x()
        head = Series([Poly.const(1), Poly((-1, 1))], order=order)
        assert nar.reciprocal() == head - nar.scale(t).mul_x()

        narb = NarayanaB().series(order)
        assert narb * (head - nar.scale(Poly((0, 2))).mul_x()) == one

        for k in range(1, 9):
            powk = cat.pow(k)
            for n in range(41):
                want = binomial(2 * n + k - 1, n) - binomial(2 * n + k - 1, n - 1)
                assert powk[n] == want == catalan_convolution(k, n)
