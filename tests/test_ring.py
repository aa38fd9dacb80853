"""Polynomial, series and binomial kernel tests."""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from hankelshift import ring

from hankelshift.errors import NonExactDivision, NonUnitConstantTerm
from hankelshift.ring import Poly, Series, binomial, choose2_parity, sign_choose2
from hankelshift.sequences import Catalan, CentralBinomial, NarayanaC, catalan_number

from anchors import CATALAN

small_ints = st.integers(min_value=-50, max_value=50)
polys = st.lists(small_ints, max_size=8).map(Poly)


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(6, 3) == 20
    assert binomial(3, -1) == 0
    assert binomial(2, 5) == 0
    assert binomial(0, 0) == 1
    # generalized negative upper index, needed for the Narayana formula at n=0
    assert binomial(-1, 0) == 1
    assert binomial(-1, 3) == -1
    assert binomial(-2, 2) == 3


def test_sign_choose2():
    for n in range(0, 30):
        parity = (n * (n - 1) // 2) % 2
        assert choose2_parity(n) == parity
        assert sign_choose2(n) == (-1) ** parity


def test_poly_add_examples():
    assert Poly((1, 1)) + Poly((1, -1)) == Poly.const(2)
    p = Poly((3, 0, 7))
    assert Poly() + p == p
    assert Poly((1, 3, 1)) + Poly((0, 0, 1)) == Poly((1, 3, 2))


def test_poly_mul_examples():
    one_plus_t = Poly((1, 1))
    assert one_plus_t * one_plus_t == Poly((1, 2, 1))
    assert Poly((4, 2)) * Poly() == Poly()
    assert one_plus_t * Poly((1, 0, 1)) == Poly((1, 1, 1, 1))


def test_poly_exact_div_examples():
    assert Poly((1, 3, 3, 1)).exact_div(Poly((1, 1))) == Poly((1, 2, 1))
    assert Poly().exact_div(Poly((1, 1))) == Poly()
    assert Poly((0, 1, 6, 6, 1)).exact_div(Poly((0, 1))) == Poly((1, 6, 6, 1))


def test_poly_exact_div_rejects_inexact():
    with pytest.raises(NonExactDivision):
        Poly((1, 1)).exact_div(Poly((0, 1)))
    with pytest.raises(NonExactDivision):
        Poly((2, 1)).exact_div(Poly((0, 2)))
    with pytest.raises(NonExactDivision):
        Poly((1,)).exact_div(Poly())


def test_poly_exact_div_rejects_a_divisor_of_higher_degree():
    with pytest.raises(NonExactDivision, match="not divisible"):
        Poly((1,)).exact_div(Poly((1, 1)))


@given(polys, polys)
def test_poly_mul_div_round_trip(a, b):
    if b.is_zero:
        return
    assert (a * b).exact_div(b) == a


# -- the packed update kernel against the schoolbook loops -----------------


def slot_edges(nb):
    """The extreme signed digits of an nb-byte slot and their neighbours."""
    top = 1 << (8 * nb - 1)
    return (-top, 1 - top, -1, 0, 1, top - 1)


# Negative, zero, small, >= 2^200 and byte-boundary (+-2^(8j-1), +-(2^(8j-1)-1)) values.
wide_ints = st.one_of(
    small_ints,
    st.just(0),
    st.integers(2 ** 200, 2 ** 260).flatmap(lambda v: st.sampled_from((v, -v))),
    st.integers(1, 34).flatmap(lambda j: st.sampled_from(slot_edges(j))),
)
nonzero_wide = wide_ints.filter(bool)


def dense_polys(min_len):
    """Up to 20 low zero coefficients (a power of t), then min_len-40 drawn ones."""
    return st.tuples(st.integers(0, 20), st.lists(wide_ints, min_size=min_len - 1, max_size=39),
                     nonzero_wide).map(lambda t: Poly([0] * t[0] + t[1] + [t[2]]))


# Lengths 1-40, and lengths 16-40, whose packs span many slots.
wide_polys = dense_polys(1)
long_polys = dense_polys(16)
ZERO, ONE = Poly(), Poly.const(1)


@contextmanager
def counting_fallbacks():
    """Count the entries cross_quotient leaves to its schoolbook fallback."""
    calls = []
    fallback = ring.schoolbook_cross_quotient
    ring.schoolbook_cross_quotient = lambda *args: calls.append(args) or fallback(*args)
    try:
        yield calls
    finally:
        ring.schoolbook_cross_quotient = fallback


def slot_digits(nb, count):
    """``count`` digits of nb-byte slots, often at the slot edges."""
    top = 1 << (8 * nb - 1)
    return st.lists(st.one_of(st.sampled_from(slot_edges(nb)), st.integers(-top, top - 1)),
                    min_size=count, max_size=count)


# Up to 150 slots: a size-14 Narayana determinant unpacks quotients of up to 59.
@settings(deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda nb: st.tuples(st.just(nb), st.integers(1, 150).flatmap(lambda n: slot_digits(nb, n)))))
def test_pack_unpack_round_trip_at_slot_edges(nb_digits):
    nb, digits = nb_digits
    packed = ring._pack(tuple(digits), nb)
    assert packed == sum(d << (8 * nb * i) for i, d in enumerate(digits))
    assert ring._unpack(packed, nb, len(digits)) == digits
    # Just past the extremes: every slot at its lowest digit, or at its highest.
    lowest = ring._pack((slot_edges(nb)[0],) * len(digits), nb)
    for outside in (lowest - 1, -lowest):
        with pytest.raises(OverflowError):
            ring._unpack(outside, nb, len(digits))


@settings(deadline=None)
@given(st.one_of(wide_polys, long_polys), st.one_of(wide_polys, long_polys))
def test_cross_quotient_product_matches_schoolbook(a, b):
    # a*b as (a, b, 0, 0, 1) and as (0, 0, a, b, -1); the slots always hold a
    # product's digits, so neither entry falls back.
    with counting_fallbacks() as fallbacks:
        assert ring.cross_quotient(a, b, ZERO, ZERO, ONE) == a * b
        assert ring.cross_quotient(ZERO, ZERO, a, b, -ONE) == a * b
    assert fallbacks == []


@settings(deadline=None)
@given(st.one_of(wide_polys, long_polys), st.one_of(wide_polys, long_polys))
def test_cross_quotient_exact_quotient_matches_schoolbook(q, b):
    a = q * b
    assert a.exact_div(b) == q
    assert ring.cross_quotient(a, ONE, ZERO, ZERO, b) == q


@settings(deadline=None)
@given(st.one_of(wide_polys, long_polys), long_polys, wide_polys)
def test_cross_quotient_rejects_a_non_multiple(q, b, e):
    # deg e < deg b, so e is a nonzero remainder of q*b + e modulo b; e keeps
    # b's power of t, so that packing, not the valuation, has to find it.
    vb = ring._valuation(b.coeffs)
    e = Poly(((0,) * vb + e.coeffs)[:len(b.coeffs) - 1]) or Poly.monomial(min(vb, len(b.coeffs) - 2))
    a = q * b + e
    with pytest.raises(NonExactDivision):
        a.exact_div(b)
    with pytest.raises(NonExactDivision):
        ring.cross_quotient(a, ONE, ZERO, ZERO, b)


def test_cross_quotient_slots_cover_a_divisor_wider_than_the_dividend():
    # q = (1 - t)^12 and b = (1 + t + ... + t^99)^12, so a = q*b = (1 - t^100)^12:
    # b's coefficients reach 2^71, a's and q's stay below 2^10.
    q = Poly((1, -1)) ** 12
    b = Poly((1,) * 100) ** 12
    a = (Poly.monomial(100, -1) + 1) ** 12
    # One 64-bit word covers the numerator's slot bound with its slack, not the divisor.
    assert ring._bits(b.coeffs) >= 64 > ring._bits(a.coeffs) + 3 + 18
    with counting_fallbacks() as fallbacks:
        quotient = ring.cross_quotient(a, ONE, ZERO, ZERO, b)
    assert quotient == q
    assert fallbacks == []
    # The least width, 10 bytes for b's 72 bits, leaves q*b's digits no room
    # under the digit bound; the retry 16 bits wider, 12 bytes, gives them room.
    assert sorted(b._operand.packed) == [10, 12]
    assert list(quotient._operand.packed) == [12]
    assert a.exact_div(b) == q


def test_an_operand_serves_calls_of_different_slot_widths():
    # One Poly object is an operand of a narrow update (one 64-bit slot) and of
    # one whose 70-bit coefficient needs wider slots, in both orders, so the
    # second call reads the operand kept from the first at another width.
    def updates():
        shared, e = Poly((2, -1, 3)), Poly((1, 1))
        narrow = (shared, e * Poly((1, 2)), e, Poly((0, 5)), e)
        wide = (shared, e * Poly((2 ** 70, -3)), e, Poly((0, 5)), e)
        return shared, (narrow, wide)

    for order in ((0, 1), (1, 0)):
        shared, calls = updates()
        expected = [ring.schoolbook_cross_quotient(*args) for args in calls]
        with counting_fallbacks() as fallbacks:
            for i in order:
                assert ring.cross_quotient(*calls[i]) == expected[i]
        assert fallbacks == []
        assert len(shared._operand.packed) == 2


T = Poly.monomial(1)


def unit_led(coeffs, min_size=0):
    """Polys of up to 7 coefficients drawn from ``coeffs``, with a constant term of +-1."""
    return st.tuples(st.sampled_from((1, -1)), st.lists(coeffs, min_size=min_size, max_size=6)).map(
        lambda t: Poly((t[0],) + tuple(t[1])))


# (case, powers of t of the quotient, of the divisor, whether the numerator's
# products have a lower power of t than their difference, the quotient's
# cofactor, the least slot width in bytes).  The divisor's +-1-led cofactor
# keeps every quotient inside the digit bound.  A coefficient of 2^70 or more
# needs slots wider than one 64-bit word.
BORN_CASES = {
    "quotient-has-a-power-of-t": (st.integers(1, 4), st.just(0), False, unit_led(wide_ints), 8),
    "divisor-has-the-higher-power": (st.integers(0, 3), st.integers(1, 4), True,
                                     unit_led(wide_ints), 8),
    "lowest-digit-is-zero": (st.integers(1, 4), st.just(0), True, unit_led(wide_ints), 8),
    "quotient-needs-wide-slots": (st.integers(0, 3), st.integers(0, 3), True, unit_led(
        st.integers(2 ** 70, 2 ** 100).flatmap(lambda v: st.sampled_from((v, -v))), 1), 9),
}


@pytest.mark.parametrize("case", BORN_CASES)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_a_quotient_is_born_with_the_operand_its_coefficients_give(case, data):
    q_power, e_power, split, q_cofactor, min_nb = BORN_CASES[case]
    q = T ** data.draw(q_power) * data.draw(q_cofactor)
    e = T ** data.draw(e_power) * data.draw(unit_led(st.integers(-1, 1)))
    # q*e as a*1 - b*1; split, b has a constant term, so a does too and the
    # packed numerator has zero low slots.
    b = data.draw(unit_led(small_ints)) if split else ZERO
    a = q * e + b
    with counting_fallbacks() as fallbacks:
        quotient = ring.cross_quotient(a, ONE, b, ONE, e)
    assert fallbacks == []
    assert quotient == ring.schoolbook_cross_quotient(a, ONE, b, ONE, e)
    assert quotient.coeffs == q.coeffs and quotient.coeffs[-1] != 0
    born, fresh = quotient._operand, ring._scanned(Poly(q.coeffs))
    assert (born.v, born.coeffs, born.bits, born.length) == (
        fresh.v, fresh.coeffs, fresh.bits, fresh.length)
    [(nb, packed)] = born.packed.items()
    assert nb >= min_nb
    assert packed == fresh.at(nb) == ring._pack(born.coeffs, nb)


def test_results_do_not_depend_on_the_slot_table():
    # Two updates unpack 4 and 7 slots of 8 bytes, and one whose 70-bit
    # coefficient needs 10-byte slots.  Each call order runs on fresh Polys
    # from an empty (width, count) table, then again with the table warm;
    # every run gives the same results and born operands.
    runs = []
    for order in ((0, 1, 2), (2, 1, 0)):
        ring._slots.cache_clear()
        for _ in range(2):
            e = Poly((1, 1))
            calls = [(Poly((2, -1, 3)), e * Poly((1, 2)), e, Poly((0, 5)), e),
                     (Poly((2, -1, 3, 4, -5)), e * Poly((7, 0, 1)), e, Poly((0, 5)), e),
                     (Poly((2, -1, 3)), e * Poly((2 ** 70, -3)), e, Poly((0, 5)), e)]
            with counting_fallbacks() as fallbacks:
                results = {i: ring.cross_quotient(*calls[i]) for i in order}
            assert fallbacks == []
            assert [results[i] for i in range(3)] == [
                ring.schoolbook_cross_quotient(*args) for args in calls]
            runs.append([(q.coeffs, q._operand.v, q._operand.coeffs, q._operand.bits,
                          q._operand.length, q._operand.packed) for q in map(results.get, range(3))])
    assert all(run == runs[0] for run in runs)
    assert [sorted(state[-1]) for state in runs[0]] == [[8], [8], [10]]


@pytest.mark.parametrize("a, d, b, c, e, q", [
    (ONE, Poly((1, 0, 1)), ONE, ONE, T ** 2, ONE),
    (Poly((1, 2)), Poly((3, 0, 5)), Poly.const(3), Poly((1, 2)), T, Poly((0, 5, 10))),
    (Poly((-7, 1)), Poly((2, 0, 0, 9)), Poly.const(2), Poly((-7, 1)), 3 * T ** 3,
     Poly((-21, 3))),
], ids=["1", "5t+10t^2", "-21+3t"])
def test_cross_quotient_shifts_out_the_divisors_power_of_t(a, d, b, c, e, q):
    # e has a higher power of t than either product, and the low slots of
    # a*d - b*c cancel, so the packed numerator is shifted down before dividing.
    assert ring.cross_quotient(a, d, b, c, e) == ring.schoolbook_cross_quotient(a, d, b, c, e) == q


def test_cross_quotient_rejects_a_nonzero_slot_below_the_divisors_power_of_t():
    # (1 + t + t^2) - 1 = t + t^2 is not divisible by t^2: its t slot is nonzero.
    args = (ONE, Poly((1, 1, 1)), ONE, ONE, T ** 2)
    with pytest.raises(NonExactDivision):
        ring.cross_quotient(*args)
    with pytest.raises(NonExactDivision):
        ring.schoolbook_cross_quotient(*args)


def test_kronecker_quotient_outside_the_digit_bound_falls_back_to_schoolbook():
    n = 40
    euler = Poly.const(1)
    factorial = Poly.const(1)
    for j in range(1, n + 1):
        euler = euler * Poly.monomial(j, -1) + euler      # times (1 - t^j)
        factorial = factorial * Poly((1,) * j)            # times (1 + ... + t^(j-1))
    binom = Poly([binomial(n, i) * (-1) ** i for i in range(n + 1)])  # (1 - t)^n
    # euler == binom * factorial, with far smaller coefficients than either factor,
    # so neither packed quotient's digits pass the bound and the schoolbook loop decides.
    for divisor, quotient in ((factorial, binom), (binom, factorial)):
        with counting_fallbacks() as fallbacks:
            assert ring.cross_quotient(euler, ONE, ZERO, ZERO, divisor) == quotient
        assert len(fallbacks) == 1
        assert euler.exact_div(divisor) == quotient
    with pytest.raises(NonExactDivision):
        (euler + 1).exact_div(binom)


@given(polys, polys)
def test_poly_degree_additive(a, b):
    if a.is_zero or b.is_zero:
        assert (a * b).is_zero
    else:
        assert len((a * b).coeffs) == len(a.coeffs) + len(b.coeffs) - 1


@given(polys)
def test_poly_str_parse_round_trip(p):
    assert Poly.parse(str(p)) == p


def _digits(n):
    """Decimal digits of n >= 0 from 1000-digit chunks, each under the int-to-str limit."""
    chunks = []
    while True:
        n, low = divmod(n, 10 ** 1000)
        if not n:
            return str(low) + "".join(reversed(chunks))
        chunks.append(str(low).zfill(1000))


@pytest.mark.parametrize("value", [10 ** 4299, 10 ** 4300 - 1, 10 ** 4300, 10 ** 9000 - 1,
                                   3 ** 20000, 7 ** 30000 + 1],
                         ids=["10^4299", "10^4300-1", "10^4300", "10^9000-1", "3^20000",
                              "7^30000+1"])
def test_poly_text_past_the_int_str_digit_limit(value):
    # Python's default limit refuses str() and int() of more than 4300 digits.
    p = Poly((value, 0, -value - 1, 2))
    text = str(p)
    assert text == f"{_digits(value)}-{_digits(value + 1)}*t^2+2*t^3"
    assert Poly.parse(text) == p
    assert Poly.parse(f"-{_digits(value)}*t") == Poly((0, -value))


def test_poly_canonical_strings():
    assert str(Poly()) == "0"
    assert str(Poly.const(-3)) == "-3"
    assert str(Poly((1, 3, 1))) == "1+3*t+t^2"
    assert str(Poly((0, 0, 0, -4, -4, -4))) == "-4*t^3-4*t^4-4*t^5"
    assert str(Poly((0, -1, -1))) == "-t-t^2"
    assert str(Poly((1, -1))) == "1-t"


def test_poly_subtracted_from_an_int():
    assert 3 - Poly((1, 2)) == Poly((2, -2))


def test_series_canonical_strings():
    assert (str(Catalan().series(7))
            == "1 + x + 2*x^2 + 5*x^3 + 14*x^4 + 42*x^5 + 132*x^6 + O(x^7)")
    assert (str(NarayanaC().series(5))
            == "1 + x + (1+t)*x^2 + (1+3*t+t^2)*x^3 + (1+6*t+6*t^2+t^3)*x^4 + O(x^5)")


def test_series_strings_skip_zero_and_sign_unit_coefficients():
    assert str(Catalan().series(5).reciprocal()) == "1 + -x + -x^2 + -2*x^3 + -5*x^4 + O(x^5)"
    assert str(Series([1, 0, 3], order=4)) == "1 + 3*x^2 + O(x^4)"


def test_series_mul_catalan_square():
    cat = Catalan().series(10)
    square = cat * cat
    assert [square[n].constant for n in range(9)] == CATALAN[1:10]


def test_series_mul_identity():
    cat = Catalan().series(12)
    assert cat * Series.one(12) == cat


def test_series_mul_central_binomial_square():
    cb = CentralBinomial().series(32)
    lhs = Series([Poly.const(1), Poly.const(-4)], order=32) * (cb * cb)
    assert lhs == Series.one(32)


def test_series_reciprocal_of_catalan():
    rec = Catalan().series(10).reciprocal()
    assert [rec[n].constant for n in range(7)] == [1, -1, -1, -2, -5, -14, -42]


def test_series_reciprocal_of_one():
    assert Series.one(6).reciprocal() == Series.one(6)


def test_series_reciprocal_requires_unit():
    with pytest.raises(NonUnitConstantTerm):
        CentralBinomial().series(4).scale(2).reciprocal()


def test_series_reciprocal_identity_for_families():
    from hankelshift.sequences import ConvCatalan, MNumbers, NarayanaB, NarayanaC

    families = (
        [Catalan(), CentralBinomial(), NarayanaC(), NarayanaB()]
        + [MNumbers(b) for b in (-2, -1, 0, 1, 2, 3)]
        + [ConvCatalan(k) for k in (2, 3, 4)]
    )
    for family in families:
        series = family.series(64)
        assert series * series.reciprocal() == Series.one(64), family.label


def test_series_pow_examples():
    cat = Catalan().series(8)
    assert [cat.pow(3)[n].constant for n in range(5)] == [1, 3, 9, 28, 90]
    assert [cat.pow(4)[n].constant for n in range(5)] == [1, 4, 14, 48, 165]
    assert cat.pow(1) == cat
    with pytest.raises(ValueError):
        cat.pow(0)


def test_series_pow_coefficient_formula():
    cat = Catalan().series(41)
    for k in range(1, 9):
        powk = cat.pow(k)
        for n in range(41):
            assert powk[n] == binomial(2 * n + k - 1, n) - binomial(2 * n + k - 1, n - 1)


def test_series_order_is_min_of_operands():
    a = Catalan().series(10)
    b = Catalan().series(6)
    assert (a * b).order == 6
    assert (a + b).order == 6
    assert (a - b).order == 6


def test_series_constant_term_and_truncate():
    cat = Catalan().series(6)
    assert cat.constant_term == Poly.const(1)
    assert cat.truncate(3).coeffs == cat.coeffs[:3]
    with pytest.raises(ValueError):
        cat.truncate(7)


def test_catalan_number_against_list():
    assert [catalan_number(n) for n in range(len(CATALAN))] == CATALAN
