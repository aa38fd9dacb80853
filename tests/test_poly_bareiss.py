"""Polynomial fraction-free elimination through the packed update kernel.

The kernel ``ring.cross_quotient`` computes each update (a*d - b*c) / e as
one packed big-int expression.  It is checked here against a reference
elimination written over plain ``Poly`` operations, directly on exact and
inexact quotients, and, for whole Narayana determinants from elimination,
condensation and the recursion, against integer elimination at enough
evaluation points to fix the polynomial.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from hankelshift import (HankelSpec, NarayanaB, NarayanaC, Poly, build, det, det_bareiss,
                         det_cofactor, det_condensation, narayana_forward_det_recursive)
from hankelshift import hankel, ring
from hankelshift.errors import NonExactDivision
from hankelshift.hankel import BAREISS, CONDENSATION, Matrix, _poly_pivots
from hankelshift.ring import binomial, cross_quotient
from hankelshift.sequences import Catalan


def reference_pivots(rows):
    """The values of hankel._eliminate, with each update spelled out in Poly ops.

    ``end`` is one past the last row a swap has reached: a step before
    ``end - 1`` is inside a window and yields 0, and the others yield the
    pivot times the sign of the swaps.
    """
    grid = [list(row) for row in rows]
    n = len(grid)
    sign, prev, end, out = 1, Poly.const(1), 0, []
    for k in range(n - 1):
        if grid[k][k].is_zero:
            swap = next((r for r in range(k + 1, n) if not grid[r][k].is_zero), None)
            if swap is None:
                return out + [Poly()]
            grid[k], grid[swap] = grid[swap], grid[k]
            sign = -sign
            end = max(end, swap + 1)
        pivot = grid[k][k]
        if k < end - 1:
            out.append(Poly())
        else:
            out.append(pivot if sign == 1 else -pivot)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                grid[i][j] = (pivot * grid[i][j] - grid[i][k] * grid[k][j]).exact_div(prev)
        prev = pivot
    out.append(grid[-1][-1] if sign == 1 else -grid[-1][-1])
    return out


def edges(nb):
    """The extreme signed values of an nb-byte slot and their neighbours."""
    top = 1 << (8 * nb - 1)
    return (-top, 1 - top, top - 1, top)


# Negative, zero, at least 2^200, and on byte edges (64-bit words among them).
coefficients = st.one_of(
    st.integers(-9, 9),
    st.just(0),
    st.integers(2 ** 200, 2 ** 260).flatmap(lambda v: st.sampled_from((v, -v))),
    st.integers(1, 17).flatmap(lambda j: st.sampled_from(edges(j))),
)

# t^v * f with f of 0-5 coefficients: zero entries are common, so pivots
# vanish and rows are swapped.
entries = st.tuples(st.integers(0, 6), st.lists(coefficients, max_size=5)).map(
    lambda vf: Poly([0] * vf[0] + vf[1]))

matrices = st.integers(1, 7).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(matrices)
@example([[Poly(), Poly((0, 1))], [Poly((1, 1)), Poly.const(2)]])
@example([[Poly(), Poly(), Poly((0, 0, 3))],
          [Poly(), Poly((0, 1)), Poly((2 ** 63 - 1,))],
          [Poly((0, 0, 0, -(2 ** 63))), Poly((1, 1)), Poly((-1,))]])
def test_poly_pivots_match_reference_elimination(rows):
    assert list(_poly_pivots(Matrix(rows))) == reference_pivots(rows)


def test_cross_quotient_exact_cases():
    t = Poly((0, 1))
    a, d, b, c = t * t * Poly((1, 2)), Poly((0, 0, 5, -1)), t * Poly((3, 1)), Poly((0, 7))
    e = t * t * Poly((1, 1))
    for quotient in (Poly((-1, 4, 3)), Poly((2 ** 70, 0, -1)), Poly((0, 0, 1))):
        dividend = quotient * e
        # b*c alone (so its sign matters), a*d alone, and both.
        assert cross_quotient(Poly(), d, Poly.const(-1), dividend, e) == quotient
        assert cross_quotient(dividend, Poly.const(1), b, Poly(), e) == quotient
        assert cross_quotient(dividend + b * c, Poly.const(1), b, c, e) == quotient
    assert cross_quotient(a, d, b, c, Poly.const(1)) == a * d - b * c
    assert cross_quotient(a, d, a, d, e) == Poly()
    assert cross_quotient(Poly(), d, b, Poly(), e) == Poly()


def test_cross_quotient_raises_on_a_non_multiple():
    t = Poly((0, 1))
    e = Poly((1, 2))
    with pytest.raises(NonExactDivision):  # nonzero remainder of the packed divmod
        cross_quotient(Poly((1, 1)), Poly.const(1), Poly(), Poly(), e)
    with pytest.raises(NonExactDivision):  # t^3 does not divide t^2 * (...)
        cross_quotient(t * t, Poly((1, 5)), Poly(), Poly(), t * t * t)
    with pytest.raises(NonExactDivision):  # the numerator is shorter than the divisor
        cross_quotient(Poly.const(3), Poly.const(1), Poly(), Poly(), e * e)
    with pytest.raises(NonExactDivision):
        cross_quotient(Poly.const(1), Poly.const(1), Poly(), Poly(), Poly())


def test_cross_quotient_falls_back_when_the_digit_bound_fails(monkeypatch):
    # euler = (1 - t)^n * factorial has coefficients of a few bits, so the
    # slots sized for this entry are one 64-bit word, and the quotient's
    # 153-bit coefficients cannot pass the digit bound there.
    n = 40
    euler, factorial = Poly.const(1), Poly.const(1)
    for j in range(1, n + 1):
        euler = euler * Poly.monomial(j, -1) + euler
        factorial = factorial * Poly((1,) * j)
    binom = Poly([binomial(n, i) * (-1) ** i for i in range(n + 1)])
    assert max(ring._bits(euler.coeffs) + 3, ring._bits(binom.coeffs)) + 18 <= 64
    assert ring._bits(factorial.coeffs) > 64
    calls = []
    exact_div = Poly.exact_div
    monkeypatch.setattr(Poly, "exact_div", lambda a, b: calls.append(b) or exact_div(a, b))
    assert cross_quotient(euler, Poly.const(1), Poly(), Poly(), binom) == factorial
    assert calls == [binom]
    with pytest.raises(NonExactDivision):
        cross_quotient(euler + 1, Poly.const(1), Poly(), Poly(), binom)


def test_cross_quotient_makes_each_operand_once(monkeypatch):
    # Both routes make an operand through ring._Operand: an operand read off a
    # Poly's coefficients on its first use, and one a quotient is born with.
    made = []
    operand = ring._Operand
    monkeypatch.setattr(ring, "_Operand", lambda p, *rest: made.append(p) or operand(p, *rest))
    e = Poly((1, 1))
    pivot = Poly((2, 1))
    quotients = []
    for c in (Poly((1, 1, 1)), Poly((0, 3)), Poly((5,))):
        d = c * Poly((1, 4))
        quotients.append(cross_quotient(pivot, d * e, pivot, c * e, e))
        assert quotients[-1] == pivot * (d - c)
    # The pivot and the divisor serve all three calls, and each is made an operand once.
    assert sum(p is pivot for p in made) == 1 and sum(p is e for p in made) == 1
    # Each quotient is born with its operand, and none is made again.
    assert [sum(p is q for p in made) for q in quotients] == [1, 1, 1]


def test_elimination_never_repacks_a_quotient_at_the_width_that_made_it(monkeypatch):
    # A kernel quotient that reaches _unpack and not the schoolbook fallback
    # came out of a packed expression at the width _unpack read it at.
    births, packs, state = [], [], {}
    kernel, unpack, fallback, pack = (hankel.cross_quotient, ring._unpack,
                                      ring.schoolbook_cross_quotient, ring._pack)

    def unpacking(value, nb, count):
        state["nb"] = nb
        return unpack(value, nb, count)

    def falling_back(*args):
        state["nb"] = None
        return fallback(*args)

    def traced_kernel(*args):
        state["nb"] = None
        quotient = kernel(*args)
        if quotient and state["nb"] is not None:
            births.append((quotient, state["nb"]))
        return quotient

    spec = HankelSpec(NarayanaB(), 4, 14)
    expected = det(spec, engine=CONDENSATION).value
    monkeypatch.setattr(ring, "_unpack", unpacking)
    monkeypatch.setattr(ring, "schoolbook_cross_quotient", falling_back)
    monkeypatch.setattr(ring, "_pack",
                        lambda coeffs, nb: packs.append((coeffs, nb)) or pack(coeffs, nb))
    monkeypatch.setattr(hankel, "cross_quotient", traced_kernel)
    assert det_bareiss(build(spec)) == expected
    assert births and packs
    # _pack is handed an operand's own coefficient tuple, so identity names the Poly.
    packed_at = {(id(coeffs), nb) for coeffs, nb in packs}
    repacked = [(q, nb) for q, nb in births
                if q._operand is not None and (id(q._operand.coeffs), nb) in packed_at]
    assert repacked == []


def row_degree_bound(matrix):
    return sum(max(len(entry.coeffs) - 1 for entry in row) for row in matrix.rows)


def test_narayana_determinants_match_integer_elimination_at_enough_points():
    # det(A)(c) = det(A(c)); both sides have degree <= D, so D + 1 points fix det(A).
    # Integer elimination never packs a polynomial, so this audits every
    # producer that runs the kernel: polynomial elimination, the Narayana
    # recursion (its (m, n) is the forward narayana-c spec) and condensation.
    rng = random.Random(2024)
    specs = [HankelSpec(rng.choice((NarayanaC(), NarayanaB())), rng.randint(-4, 4),
                        rng.randint(10, 14)) for _ in range(4)]
    produced = [(spec, det_bareiss(build(spec))) for spec in specs]
    produced += [(HankelSpec(NarayanaC(), m, n), narayana_forward_det_recursive(m, n))
                 for m, n in ((0, 10), (2, 7), (4, 10))]
    produced += [(spec, det_condensation(build(spec)))
                 for spec in (HankelSpec(NarayanaC(), 2, 10), HankelSpec(NarayanaB(), 1, 9))]
    for spec, value in produced:
        matrix = build(spec)
        bound = row_degree_bound(matrix)
        assert len(value.coeffs) - 1 <= bound
        for point in range(-(bound // 2), bound - bound // 2 + 1):
            at_point = Matrix([[Poly.const(entry(point)) for entry in row] for row in matrix.rows])
            assert det_bareiss(at_point) == value(point), (spec, point)


def test_auto_sends_polynomial_matrices_to_elimination(monkeypatch):
    def blocked(matrix):
        raise AssertionError("condensation ran on a polynomial matrix")

    monkeypatch.setattr(hankel, "det_condensation", blocked)
    for spec in (HankelSpec(NarayanaC(), 2, 6), HankelSpec(NarayanaB(), -2, 5)):
        result = det(spec)
        assert result.engine == BAREISS
        assert result.value == det_cofactor(build(spec))


def test_auto_keeps_condensation_first_on_unblocked_integer_matrices():
    result = det(HankelSpec(Catalan(), 2, 6))
    assert result.engine == CONDENSATION
    assert result.value == det_cofactor(build(HankelSpec(Catalan(), 2, 6)))
