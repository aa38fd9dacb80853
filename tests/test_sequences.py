"""Sequence family tests: term values, zero extension, series identities,
and the stepping recurrences against their defining formulas."""

import math
import sys
import threading

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
from hankelshift import sequences
from hankelshift.errors import NonExactDivision
from hankelshift.ring import binomial
from hankelshift.sequences import (
    catalan_convolution,
    catalan_number,
    m_number,
    narayana_b_polynomial,
    narayana_polynomial,
)

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


def test_families_are_immutable_and_told_apart_by_class():
    assert Catalan() != CentralBinomial()
    assert MNumbers(0) != ConvCatalan(1)
    assert MNumbers(b=-2) == MNumbers(-2)
    assert [repr(f) for f in (Catalan(), MNumbers(b=-2), ConvCatalan(k=3))] == [
        "Catalan()", "MNumbers(b=-2)", "ConvCatalan(k=3)"]
    for family, name in ((Catalan(), "label"), (MNumbers(2), "b"), (ConvCatalan(3), "k")):
        with pytest.raises(AttributeError):
            setattr(family, name, 5)
    assert MNumbers(2).b == 2 and ConvCatalan(3).k == 3


TERM_CACHES = (catalan_number, narayana_polynomial, narayana_b_polynomial,
               m_number, catalan_convolution)


@pytest.fixture
def cold_terms(monkeypatch):
    """Empty runs and term caches for the test; the caches are cleared
    again afterwards, so later tests never see the test's values."""

    def clear():
        sequences._runs.clear()
        for f in TERM_CACHES:
            f.cache_clear()

    monkeypatch.setattr(sequences, "_runs", {})
    clear()
    yield clear
    clear()


def test_m_numbers_match_the_ballot_sum():
    # M_n(b) = sum_k B(n,k) b^(n-k) with ballot numbers
    # B(n,k) = binom(n+k,k) - binom(n+k,k-1).
    for n in range(301):
        ballot = [math.comb(n + k, k) - (math.comb(n + k, k - 1) if k else 0)
                  for k in range(n + 1)]
        for b in range(-5, 6):
            want = 0
            for c in ballot:  # Horner in b, from b^n at k = 0 down to b^0 at k = n
                want = want * b + c
            assert m_number(b, n) == want, (b, n)


def test_conv_catalan_matches_the_closed_form():
    def closed(k, n):
        q, r = divmod(math.comb(2 * n + k, n) * k, 2 * n + k)
        assert r == 0
        return q

    for k in range(1, 9):
        for n in range(301):
            assert catalan_convolution(k, n) == closed(k, n), (k, n)
        for n in (1000, 2047, 3333, 4200):
            assert catalan_convolution(k, n) == closed(k, n), (k, n)


def test_central_binomial_matches_comb():
    fam = CentralBinomial()
    for n in [*range(301), *range(301, 4201, 7), 4200]:
        assert fam.term(n) == math.comb(2 * n, n), n


def test_narayana_rows_match_the_binomial_products():
    assert narayana_polynomial(0) == Poly.const(1)
    assert narayana_b_polynomial(0) == Poly.const(1)
    for n in range(301):
        want_c = [binomial(n - 1, k) * binomial(n, k) // (k + 1) for k in range(n + 1)]
        want_b = [math.comb(n, k) ** 2 for k in range(n + 1)]
        assert narayana_polynomial(n) == Poly(want_c), n
        assert narayana_b_polynomial(n) == Poly(want_b), n


def test_terms_do_not_depend_on_the_order_of_requests(cold_terms):
    # m-numbers read the Catalan numbers while extending their own run, so
    # the families are asked in opposite orders too.
    families = [MNumbers(3), MNumbers(1), MNumbers(-2), Catalan(), CentralBinomial(),
                ConvCatalan(4)]
    small = range(0, 60, 7)

    deep_first = {}
    for fam in families:
        deep_first[fam.label, 4000] = fam.term(4000)
        for n in small:
            deep_first[fam.label, n] = fam.term(n)

    cold_terms()
    shallow_first = {}
    for fam in reversed(families):
        for n in small:
            shallow_first[fam.label, n] = fam.term(n)
        shallow_first[fam.label, 4000] = fam.term(4000)

    assert shallow_first == deep_first
    assert deep_first["m-numbers(b=1)", 4000] == catalan_number(4001)


def test_two_threads_extending_one_run_agree_with_a_sequential_run(cold_terms):
    depth = 1500
    sequential = [catalan_convolution(5, n) for n in range(depth + 1)]
    sequential_m = [m_number(-3, n) for n in range(depth + 1)]
    cold_terms()
    # Switch threads as often as the interpreter allows, so the two walks
    # interleave inside one extension.
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    barrier = threading.Barrier(2, timeout=30)
    got = {}

    def walk(name, order):
        barrier.wait()
        got[name] = {n: (catalan_convolution(5, n), m_number(-3, n)) for n in order}

    threads = [
        threading.Thread(target=walk, args=("up", range(depth + 1))),
        threading.Thread(target=walk, args=("leap", range(0, depth + 1, 5))),
    ]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    for name in ("up", "leap"):
        assert all(got[name][n] == (sequential[n], sequential_m[n]) for n in got[name])
    assert len(got["up"]) == depth + 1
    # Past the first few terms both walks extend the same runs; the
    # m-numbers run always starts at a_0.
    start, run = sequences._runs["conv(k=5)"]
    assert run == sequential[start:start + len(run)]
    assert sequences._runs["m-numbers(b=-3)"] == (0, sequential_m)


def test_a_window_extends_a_run_and_a_far_request_starts_one(cold_terms):
    deep = [catalan_convolution(4, n) for n in range(4000, 4011)]
    assert sequences._runs["conv(k=4)"] == (4000, deep)
    catalan_convolution(4, 4011 + 4011 // 8)  # just within reach: stepped
    assert sequences._runs["conv(k=4)"][0] == 4000
    catalan_convolution(4, 6000)  # far past the run
    assert sequences._runs["conv(k=4)"][0] == 6000
    catalan_convolution(4, 100)  # below the run
    assert sequences._runs["conv(k=4)"][0] == 100
    # binom(2n, n) = (n+1) C_n reads one Catalan number, so a deep central
    # binomial holds one term, not the n terms below it.
    assert CentralBinomial().term(7300) == math.comb(14600, 7300)
    assert sequences._runs["conv(k=1)"] == (7300, [catalan_number(7300)])
    # The M-numbers have no one-binomial closed form, so they step from a_0.
    m_number(3, 500)
    start, run = sequences._runs["m-numbers(b=3)"]
    assert (start, len(run)) == (0, 501)


def test_catalan_based_families_read_the_first_convolution_power(cold_terms):
    # Catalan numbers are C^1, central binomials are (n+1) C_n and the
    # M-numbers at b = 0 and 1 are C_n and C_{n+1}: five families, one run.
    for fam in (Catalan(), CentralBinomial(), ConvCatalan(1), MNumbers(0), MNumbers(1)):
        for n in range(301):
            fam.term(n)
    assert set(sequences._runs) == {"conv(k=1)"}
    for n in [*range(301), 4000, 7300]:
        c = catalan_number(n)
        assert c == catalan_convolution(1, n) == math.comb(2 * n, n) // (n + 1) == m_number(0, n), n


def test_a_step_that_leaves_a_remainder_raises(cold_terms, monkeypatch):
    step = sequences._conv_step

    def off_by_one(k, i, prev):
        num, den = step(k, i, prev)
        return num + (k == 1 and i == 70), den

    monkeypatch.setattr(sequences, "_conv_step", off_by_one)
    assert catalan_number(69) == math.comb(138, 69) // 70
    with pytest.raises(NonExactDivision, match=r"conv\(k=1\) recurrence .* at n=70"):
        catalan_number(70)
    # The m-numbers step reads the Catalan numbers, so it fails the same way.
    with pytest.raises(NonExactDivision, match=r"conv\(k=1\) recurrence .* at n=70"):
        m_number(2, 80)
    with pytest.raises(NonExactDivision, match=r"narayana-c row 9 recurrence .* at k=3"):
        sequences._extend([1], 10, lambda k, c: (c * (9 - k) * (10 - k) + (k == 3),
                                                  k * (k + 1)), "narayana-c row 9", "k")


def test_a_closed_form_that_leaves_a_remainder_raises(cold_terms, monkeypatch):
    comb = math.comb
    monkeypatch.setattr(sequences.math, "comb", lambda n, k: comb(n, k) + 1)
    with pytest.raises(NonExactDivision, match=r"conv\(k=1\) closed form .* at n=4000"):
        catalan_number(4000)
    with pytest.raises(NonExactDivision, match=r"conv\(k=3\) closed form .* at n=4000"):
        catalan_convolution(3, 4000)


def test_negative_index_is_refused_below_the_families():
    for call in (lambda: catalan_number(-1), lambda: m_number(1, -1), lambda: m_number(2, -1),
                 lambda: catalan_convolution(3, -1), lambda: narayana_polynomial(-1),
                 lambda: narayana_b_polynomial(-1)):
        with pytest.raises(ValueError):
            call()
