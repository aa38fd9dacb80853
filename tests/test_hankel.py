"""Matrix construction and determinant engine tests."""

import random

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
    build,
    cross_check,
    det,
    det_bareiss,
    det_cofactor,
    det_condensation,
    forward_catalan_det,
)
from hankelshift import hankel as hankel_module
from hankelshift.errors import CondensationUnavailable, DimensionTooLarge, NonExactDivision
from hankelshift.hankel import (
    AUTO,
    BAREISS,
    COFACTOR,
    CONDENSATION,
    Matrix,
    _int_cross_quotient,
    _int_pivots,
    _poly_pivots,
)
from hankelshift.ring import sign_choose2

from anchors import DET_CATALAN_BWD, DET_CATALAN_FWD, DET_NARAYANA_BWD

FAMILIES = [
    Catalan(),
    CentralBinomial(),
    MNumbers(-2),
    MNumbers(1),
    MNumbers(3),
    NarayanaC(),
    NarayanaB(),
    ConvCatalan(2),
    ConvCatalan(5),
]


def ints(*rows):
    return Matrix([[Poly.const(v) for v in row] for row in rows])


def test_build_backward_shape():
    m = build(HankelSpec(Catalan(), -3, 4))
    assert m == ints((0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 2), (1, 1, 2, 5))


def test_build_small():
    assert build(HankelSpec(Catalan(), 0, 1)) == ints((1,))
    assert build(HankelSpec(Catalan(), 2, 2)) == ints((2, 5), (5, 14))
    assert build(HankelSpec(Catalan(), 0, 0)).n == 0


def test_build_is_hankel_structured():
    m = build(HankelSpec(NarayanaC(), -2, 6))
    for i in range(1, 6):
        for j in range(5):
            assert m.entry(i, j) == m.entry(i - 1, j + 1)


def test_det_cofactor_examples():
    assert det_cofactor(ints((2, 5), (5, 14))) == 3
    assert det_cofactor(Matrix([])) == 1
    four = ints((0, 1, 1, 2), (1, 1, 2, 5), (1, 2, 5, 14), (2, 5, 14, 42))
    assert det_cofactor(four) == -3


def test_det_cofactor_dimension_guard():
    with pytest.raises(DimensionTooLarge):
        det_cofactor(build(HankelSpec(Catalan(), 0, 9)))


def test_det_bareiss_examples():
    four = ints((0, 1, 1, 2), (1, 1, 2, 5), (1, 2, 5, 14), (2, 5, 14, 42))
    assert det_bareiss(four) == -3
    assert det_bareiss(build(HankelSpec(Catalan(), -3, 12))) == 21945
    assert det_bareiss(build(HankelSpec(NarayanaC(), -1, 3))) == Poly((0, -1, -1))


def test_bareiss_int_and_poly_paths_identical():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 6)
        rows = [[Poly.const(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
        m = Matrix(rows)
        assert list(_int_pivots(m)) == list(_poly_pivots(m))
    for spec in (HankelSpec(Catalan(), -2, 6), HankelSpec(ConvCatalan(3), -1, 5)):
        m = build(spec)
        assert list(_int_pivots(m)) == list(_poly_pivots(m))


def test_det_condensation_examples():
    assert det_condensation(ints((2, 5), (5, 14))) == 3
    assert det_condensation(build(HankelSpec(Catalan(), 1, 5))) == 1
    # third entry of the backward row (1, 0, -1, -2, ...)
    value = det_condensation(build(HankelSpec(Catalan(), -1, 3)))
    assert value is None or value == -2


def test_det_condensation_unavailable_on_zero_interior():
    # interior entry (1,1) of the fully backward 4x4 block is zero; on a
    # polynomial matrix it is found before the packed kernel divides by it
    for family, size in ((Catalan(), 4), (NarayanaC(), 4), (NarayanaC(), 6),
                         (NarayanaB(), 4), (NarayanaB(), 6)):
        assert det_condensation(build(HankelSpec(family, -3, size))) is None, (family, size)


def test_det_condensation_is_none_exactly_when_a_divisor_vanishes():
    # The divisors of the size-n wedge are the contiguous minors H_{shift+q}(c),
    # 1 <= c <= n-2, 2 <= q <= 2(n-c-1); here each is its own elimination.
    minors = {}

    def minor(family, shift, size):
        if (family, shift, size) not in minors:
            minors[family, shift, size] = det_bareiss(build(HankelSpec(family, shift, size)))
        return minors[family, shift, size]

    outcomes = []
    for family in FAMILIES:
        sizes = range(8) if isinstance(family, (NarayanaC, NarayanaB)) else range(11)
        for shift in range(-6, 7):
            for n in sizes:
                matrix = build(HankelSpec(family, shift, n))
                blocked = any(minor(family, shift + q, c).is_zero
                              for c in range(1, n - 1) for q in range(2, 2 * (n - c - 1) + 1))
                value = det_condensation(matrix)
                assert (value is None) == blocked, (family.label, shift, n)
                assert blocked or value == det_bareiss(matrix), (family.label, shift, n)
                outcomes.append(blocked)
    assert 0 < sum(outcomes) < len(outcomes)


def test_det_condensation_takes_hankel_matrices_only():
    with pytest.raises(ValueError, match="Hankel"):
        det_condensation(ints((1, 2), (3, 4)))
    # row 0 and the last column fit the band 1..5, the interior does not
    with pytest.raises(ValueError, match="Hankel"):
        det_condensation(ints((1, 2, 3), (2, 9, 4), (3, 4, 5)))
    assert det_condensation(Matrix([])) == 1
    assert det_condensation(ints((7,))) == 7


def test_det_dispatcher():
    assert det(HankelSpec(Catalan(), -2, 5)).value == -14
    for family in FAMILIES:
        result = det(HankelSpec(family, -2, 0))
        assert result.value == 1
    result = det(HankelSpec(CentralBinomial(), -1, 4))
    assert result.value == -12  # brute-force cofactor value, frozen
    assert det_cofactor(build(HankelSpec(CentralBinomial(), -1, 4))) == -12
    assert result.engine in (BAREISS, CONDENSATION)


def test_det_rows_against_known_lists():
    for shift, row in {**DET_CATALAN_FWD, **DET_CATALAN_BWD}.items():
        for n, want in enumerate(row):
            assert det(HankelSpec(Catalan(), shift, n)).value == want, (shift, n)
    for shift, row in DET_NARAYANA_BWD.items():
        for n, want in enumerate(row):
            assert det(HankelSpec(NarayanaC(), shift, n)).value == want, (shift, n)


def test_cross_check_examples():
    assert cross_check(HankelSpec(Catalan(), 0, 6)).value == 1
    assert cross_check(HankelSpec(NarayanaC(), -2, 3)).value == -1
    assert cross_check(HankelSpec(ConvCatalan(3), 0, 2)).value == 0


def test_engine_agreement_grid():
    for family in FAMILIES:
        for m in range(-4, 5):
            for n in range(0, 8):
                cross_check(HankelSpec(family, m, n))


def test_cross_check_raises_with_all_engine_outputs(monkeypatch):
    from hankelshift.errors import EngineDisagreement
    from hankelshift import hankel as hankel_mod

    monkeypatch.setattr(hankel_mod, "det_bareiss", lambda m: Poly.const(999))
    with pytest.raises(EngineDisagreement) as excinfo:
        cross_check(HankelSpec(Catalan(), 0, 3))
    results = excinfo.value.results
    assert results["bareiss"] == 999
    assert results["cofactor"] == 1


def test_antidiagonal_sign():
    for family in FAMILIES:
        for n in range(13):
            value = det(HankelSpec(family, 1 - n, n)).value
            assert value == sign_choose2(n), (family.label, n)


def test_condensation_identity_on_catalan_rows():
    cache = {}

    def d(m, n):
        if (m, n) not in cache:
            cache[(m, n)] = det(HankelSpec(Catalan(), m, n)).value
        return cache[(m, n)]

    for m in range(-3, 4):
        for n in range(2, 11):
            lhs = d(m, n - 1) * d(m + 2, n - 1) - d(m + 1, n - 1) ** 2
            assert lhs == d(m, n) * d(m + 2, n - 2), (m, n)


def test_reciprocal_series_gives_near_backward_determinants():
    for family in FAMILIES:
        rec = family.series(14).reciprocal()
        for n in range(2, 13):
            value = det(HankelSpec(family, 2 - n, n)).value
            assert value == sign_choose2(n + 1) * rec[n], (family.label, n)


def test_catalan_ladder_values():
    # det of the n+k sized matrix with k leading entries per row
    for k in range(1, 6):
        for n in range(0, 9):
            value = det(HankelSpec(Catalan(), -n, n + k)).value
            want = sign_choose2(n + 1) * forward_catalan_det(n + 1, k - 1)
            assert value == want, (k, n)


def test_ladder_recurrence_inside_valid_range():
    def v(k, size):
        return det(HankelSpec(Catalan(), k - size, size)).value

    for k in range(1, 5):
        for n in range(k, 9):
            lhs = v(k, n + k) * v(k, n + k - 2)
            rhs = v(k - 1, n + k - 1) * v(k + 1, n + k - 1) - v(k, n + k - 1) ** 2
            assert lhs == rhs, (k, n)


def test_bad_requests_raise(monkeypatch):
    with pytest.raises(ValueError, match="size"):
        HankelSpec(Catalan(), 0, -1)
    with pytest.raises(ValueError, match="square"):
        Matrix([[Poly.const(1), Poly.const(2)]])
    with pytest.raises(ValueError, match="bogus"):
        det(HankelSpec(Catalan(), 0, 2), engine="bogus")

    # An unknown engine is refused before any term is made.
    def no_build(spec):
        raise AssertionError("build ran before the engine name was checked")

    monkeypatch.setattr(hankel_module, "build", no_build)
    with pytest.raises(ValueError, match="bogus"):
        det(HankelSpec(Catalan(), 0, 1500), engine="bogus")


DISPATCH_SPECS = {
    "polynomial": HankelSpec(NarayanaB(), 1, 4),
    "unblocked": HankelSpec(Catalan(), 2, 6),
    "blocked": HankelSpec(Catalan(), -3, 6),
}

# (engine, spec) -> (engines called, in order; engine reported or error raised)
DISPATCH = {
    (AUTO, "polynomial"): ([BAREISS], BAREISS),
    (AUTO, "unblocked"): ([CONDENSATION], CONDENSATION),
    (AUTO, "blocked"): ([CONDENSATION, BAREISS], BAREISS),
    (BAREISS, "polynomial"): ([BAREISS], BAREISS),
    (BAREISS, "unblocked"): ([BAREISS], BAREISS),
    (BAREISS, "blocked"): ([BAREISS], BAREISS),
    (COFACTOR, "polynomial"): ([COFACTOR], COFACTOR),
    (COFACTOR, "unblocked"): ([COFACTOR], COFACTOR),
    (COFACTOR, "blocked"): ([COFACTOR], COFACTOR),
    (CONDENSATION, "polynomial"): ([CONDENSATION], CONDENSATION),
    (CONDENSATION, "unblocked"): ([CONDENSATION], CONDENSATION),
    (CONDENSATION, "blocked"): ([CONDENSATION], CondensationUnavailable),
}


@pytest.mark.parametrize("engine, kind", list(DISPATCH), ids=[f"{e}-{k}" for e, k in DISPATCH])
def test_det_dispatch_calls_each_engine_as_named(monkeypatch, engine, kind):
    # Counted on the module attributes, as bench/tracing.py wraps them.
    called = []
    for name in (CONDENSATION, BAREISS, COFACTOR):
        inner = getattr(hankel_module, f"det_{name}")

        def counted(matrix, inner=inner, name=name):
            called.append(name)
            return inner(matrix)

        monkeypatch.setattr(hankel_module, f"det_{name}", counted)
    expected_calls, outcome = DISPATCH[engine, kind]
    spec = DISPATCH_SPECS[kind]
    if isinstance(outcome, str):
        result = det(spec, engine=engine)
        assert result.engine == outcome
        assert result.value == det_cofactor(build(spec))
    else:
        with pytest.raises(outcome):
            det(spec, engine=engine)
    assert called == expected_calls


def test_integer_update_raises_on_a_remainder():
    assert _int_cross_quotient(3, 2, 1, 2, 2) == 2
    with pytest.raises(NonExactDivision):
        _int_cross_quotient(3, 1, 0, 0, 2)
