"""Report structure, claim verifiers and serialization."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hankelshift import GridRange, Poly, Report, closed_forms, hankel, verify, verify_claim
from hankelshift.errors import IdentityViolation, NonIntegerResult
from hankelshift.verify import CLAIMS, Cell, resolve_grid

from anchors import DET_CONV


def small(claim):
    grids = {
        "t1": GridRange(m_min=1, m_max=3, n_max=12),
        "t6": GridRange(m_min=1, m_max=2, n_max=8, b_list=(0, 1)),
        "t7": GridRange(m_min=1, m_max=2, n_max=8),
        "t8": GridRange(m_min=1, m_max=2, n_max=7),
        "t9": GridRange(m_min=1, m_max=2, n_max=7),
        "c10": GridRange(m_min=0, m_max=2, n_max=9, k_list=(1, 2)),
        "c11": GridRange(m_min=0, m_max=0, n_max=10, k_list=(1, 2)),
        "c12": GridRange(m_min=0, m_max=2, n_max=10, k_list=(1, 2)),
    }
    return grids[claim]


@pytest.mark.parametrize("claim", ["t1", "t6", "t7", "t8", "t9"])
def test_theorem_grids_pass(claim):
    report = verify_claim(claim, small(claim))
    assert report.all_pass
    assert report.counterexamples == ()
    assert report.is_theorem


@pytest.mark.parametrize("claim", ["t1", "t6", "t7", "t8", "t9"])
def test_theorem_reports_pass_at_default_ranges(claim):
    # any failure here is a build-stopping event, not a finding
    assert verify_claim(claim).all_pass


def test_t1_anchor_cell():
    report = verify_claim("t1", GridRange(m_min=3, m_max=3, n_max=12))
    cell = [c for c in report.cells if c.param("m") == 3 and c.param("n") == 12][0]
    assert cell.expected == 21945
    assert cell.actual == 21945


def test_t6_displayed_determinants():
    report = verify_claim("t6", GridRange(m_min=1, m_max=2, n_max=4, b_list=(0, 1)))
    for b in (0, 1):
        for m, want in ((1, -3), (2, -5)):
            cell = [
                c for c in report.cells
                if c.param("b") == b and c.param("m") == m and c.param("n") == 4
            ][0]
            assert cell.actual == want
            assert cell.passed


def test_t6_is_b_independent():
    report = verify_claim("t6", GridRange(m_min=1, m_max=2, n_max=6, b_list=(-2, 0, 3)))
    by_mn = {}
    for cell in report.cells:
        by_mn.setdefault((cell.param("m"), cell.param("n")), set()).add(cell.expected)
    assert all(len(values) == 1 for values in by_mn.values())


def test_t8_anchor_cell():
    report = verify_claim("t8", GridRange(m_min=2, m_max=2, n_max=4))
    cell = [c for c in report.cells if c.param("n") == 4][0]
    assert cell.expected == Poly((0, -1, -3, -1))  # -t(1+3t+t^2)
    assert cell.passed


def test_conjecture10_passes_and_matches_anchor_rows():
    report = verify_claim("c10", small("c10"))
    assert report.all_pass
    # the two published example rows, via their raw determinants
    from hankelshift import ConvCatalan, HankelSpec, det

    for (order, shift), row in DET_CONV.items():
        got = [det(HankelSpec(ConvCatalan(order), shift, n)).value for n in range(len(row))]
        assert got == [Poly.const(v) for v in row]


def test_conjecture10_cells_use_actual_convolution_order():
    report = verify_claim("c10", GridRange(m_min=0, m_max=1, n_max=4, k_list=(2,)))
    orders = {cell.param("k") for cell in report.cells}
    assert orders == {3, 4}


def test_conjecture11_values():
    report = verify_claim("c11", small("c11"))
    assert report.all_pass
    # order 3 (odd arm of k=2): period three pattern 1, 1, 0 with alternating sign
    cells = [c for c in report.cells if c.param("k") == 3]
    values = [c.actual for c in sorted(cells, key=lambda c: c.param("n"))]
    assert values[:9] == [Poly.const(v) for v in (1, 1, 0, -1, -1, 0, 1, 1, 0)]
    # order 2 (even arm of k=1): constant 1
    cells = [c for c in report.cells if c.param("k") == 2]
    assert all(c.actual == 1 for c in cells)


def test_conjecture12_values():
    report = verify_claim("c12", small("c12"))
    assert report.all_pass
    # k=1, m=1 reduces to the classical forward identities: constant 1 at
    # order 1 shift 2-1=... and n+1 on the plain forward Catalan grid
    cells = [c for c in report.cells if c.param("k") == 2 and c.param("m") == 1]
    for cell in cells:
        assert cell.actual == cell.param("n") + 1
    from hankelshift import Catalan, HankelSpec, det

    for n in range(8):
        assert det(HankelSpec(Catalan(), 2, n)).value == n + 1


def test_conjecture12_m_capped_by_k():
    report = verify_claim("c12", GridRange(m_min=0, m_max=3, n_max=6, k_list=(1,)))
    assert max(c.param("m") for c in report.cells) == 1
    assert report.range.m_max == 1


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
def test_modular_patterns_pass(k):
    report = verify_claim("patterns", GridRange(n_max=14, k_list=(k,)))
    assert report.all_pass


def test_modular_pattern_anchor_values():
    report = verify_claim("patterns", GridRange(n_max=8, k_list=(6,)))
    cell = [c for c in report.cells if c.param("n") == 2][0]
    assert cell.expected == -9
    assert cell.actual == -9


def test_modular_patterns_rejects_unknown_order():
    with pytest.raises(ValueError):
        verify_claim("patterns", GridRange(n_max=21, k_list=(8,)))


def test_reflection_mismatch_is_raised_not_reported(monkeypatch):
    # The two Catalan forms are one identity, so a mismatch is a bug in this package.
    monkeypatch.setattr(closed_forms, "forward_catalan_det", lambda m, n: 7)
    with pytest.raises(IdentityViolation, match="m=1, n=0"):
        verify_claim("t1", GridRange(m_min=1, m_max=1, n_max=2))


def test_non_integral_pattern_value_raises(monkeypatch):
    monkeypatch.setitem(verify._PATTERNS, 3, (1, lambda q, s: (Fraction(3, 2),)))
    with pytest.raises(NonIntegerResult, match="k=3, size 0"):
        verify_claim("patterns", GridRange(n_max=2, k_list=(3,)))


@pytest.fixture
def no_det(monkeypatch):
    def det(spec, *args, **kwargs):
        raise AssertionError("a determinant ran before the grid was checked")

    monkeypatch.setattr(hankel, "det", det)


@pytest.mark.parametrize("claim, k_list", [("patterns", (8,)), ("patterns", (3, 2)),
                                           ("c10", (0,)), ("c11", (2, -1)), ("c12", (0,))])
def test_k_outside_claim_domain_raises_before_any_determinant(claim, k_list, no_det):
    with pytest.raises(ValueError, match=f"claim {claim} takes k"):
        verify_claim(claim, GridRange(n_max=4, k_list=k_list))


@pytest.mark.parametrize("claim, grid", [
    ("t1", GridRange(m_min=4, m_max=2, n_max=3)),
    ("t7", GridRange(m_min=0, m_max=0, n_max=3)),  # the theorems walk m from 1
    ("c10", GridRange(m_min=2, m_max=1, n_max=3, k_list=(1,))),
    ("t6", GridRange(m_min=1, m_max=2, n_max=-1)),
    ("c11", GridRange(n_max=-1, k_list=(1,))),
    ("patterns", GridRange(n_max=-3)),
])
def test_empty_m_or_n_range_raises_before_any_determinant(claim, grid, no_det):
    with pytest.raises(ValueError, match=f"claim {claim} has an empty grid"):
        verify_claim(claim, grid)


@pytest.mark.parametrize("claim", list(CLAIMS))
def test_resolving_a_default_grid_runs_no_determinant(claim, no_det):
    assert resolve_grid(claim).n_max == CLAIMS[claim].default.n_max


def test_c12_grid_above_its_m_cap_raises_before_any_determinant(no_det):
    # c12 walks 0 <= m <= k, so m_min = 3 needs some k >= 3.
    with pytest.raises(ValueError, match=r"claim c12 has an empty grid: m in \[3, 3\], n <= 4"):
        resolve_grid("c12", GridRange(m_min=3, m_max=3, n_max=4, k_list=(1, 2)))
    assert resolve_grid("c12", GridRange(m_min=3, m_max=3, n_max=4, k_list=(1, 3))).m_min == 3


@pytest.mark.parametrize("claim", ["c10", "c11", "c12", "patterns"])
def test_empty_k_list_reports_the_default_k_values_it_walks(claim):
    report = verify_claim(claim, GridRange(m_min=0, m_max=1, n_max=3))
    assert report.range.k_list == CLAIMS[claim].default.k_list
    assert report == verify_claim(claim, report.range)
    assert f"k in {list(report.range.k_list)}" in report.render_text()
    if claim == "patterns":
        assert {c.param("k") for c in report.cells} == set(report.range.k_list)


def test_empty_b_list_reports_the_default_b_values_it_walks():
    report = verify_claim("t6", GridRange(m_min=1, m_max=1, n_max=3))
    assert report.range.b_list == CLAIMS["t6"].default.b_list
    assert len(report.cells) == 24
    assert {c.param("b") for c in report.cells} == set(report.range.b_list)


def test_verify_claim_dispatch_and_defaults():
    for claim in ("t1", "t6", "t7", "t8", "t9", "c10", "c11", "c12", "patterns"):
        assert CLAIMS[claim].default.n_max > 0
    with pytest.raises(ValueError):
        verify_claim("t2")
    report = verify_claim("patterns", GridRange(n_max=6, k_list=(3, 4)))
    assert report.claim_id == "patterns"
    assert {c.param("k") for c in report.cells} == {3, 4}
    assert report.all_pass


def test_cells_sorted_deterministically():
    report = verify_claim("c10", GridRange(m_min=0, m_max=2, n_max=5, k_list=(2, 1)))
    keys = [cell.sort_key() for cell in report.cells]
    assert keys == sorted(keys)


def test_report_json_writes_values_past_the_int_str_digit_limit():
    # A fresh interpreter starts with Python's default 4300-digit limit,
    # whatever earlier tests in this process did.
    script = """
import json
import sys
from hankelshift import GridRange, Poly, Report
from hankelshift.verify import Cell

def digits(n):
    chunks = []
    while True:
        n, low = divmod(n, 10 ** 1000)
        if not n:
            return str(low) + "".join(reversed(chunks))
        chunks.append(str(low).zfill(1000))

big = Poly((-(3 ** 20000), 0, 7 ** 9000 + 1))
text = "-" + digits(3 ** 20000) + "+" + digits(7 ** 9000 + 1) + "*t^2"
report = Report("t8", GridRange(m_min=1, m_max=1, n_max=1),
                (Cell((("m", 1), ("n", 1)), big, big + 1),))
assert json.loads(report.to_json())["cells"][0]["expected"] == text
assert "expected " + text in report.render_text()
assert sys.get_int_max_str_digits() == 4300
"""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_report_schema_field_names():
    report = verify_claim("t1", GridRange(m_min=1, m_max=1, n_max=3))
    data = json.loads(report.to_json())
    assert set(data) == {"claim_id", "range", "cells", "all_pass", "counterexamples"}
    assert set(data["range"]) == {"m_min", "m_max", "n_max", "k_list", "b_list"}
    for cell in data["cells"]:
        assert set(cell) == {"params", "expected", "actual", "pass"}
        assert set(cell["params"]) <= {"k", "b", "m", "n"}
        assert isinstance(cell["expected"], str)
        assert isinstance(cell["actual"], str)


def test_failing_cell_is_reported_not_raised():
    bad = Cell((("m", 1), ("n", 2)), Poly.const(5), Poly.const(7))
    good = Cell((("m", 1), ("n", 1)), Poly.const(1), Poly.const(1))
    report = Report("c11", GridRange(n_max=2), (good, bad))
    assert not report.all_pass
    assert report.counterexamples == (bad,)
    text = report.render_text()
    assert "FAIL" in text
    assert "expected 5, got 7" in text


def test_conjecture_report_text_states_range_and_caveat():
    report = verify_claim("c11", GridRange(m_min=0, m_max=0, n_max=4, k_list=(1,)))
    text = report.render_text()
    assert "n <= 4" in text
    assert "not proof" in text
    theorem_text = verify_claim("t1", GridRange(m_min=1, m_max=1, n_max=2)).render_text()
    assert "not proof" not in theorem_text


# The grid axes among "k", "b" and "m" that each claim's walk varies (n always is).
_AXES = {"t1": "m", "t6": "bm", "t7": "m", "t8": "m", "t9": "m",
         "c10": "km", "c11": "k", "c12": "km", "patterns": "k"}


@pytest.mark.parametrize("claim", sorted(CLAIMS))
def test_report_echoes_only_the_axes_the_claim_walks(claim):
    report = verify_claim(claim, GridRange(m_min=-2, m_max=1, n_max=3,
                                           k_list=(3,), b_list=(1, 2)))
    axes = _AXES[claim]
    assert report.range.k_list == ((3,) if "k" in axes else ())
    assert report.range.b_list == ((1, 2) if "b" in axes else ())
    low = 1 if CLAIMS[claim].is_theorem else 0
    assert (report.range.m_min, report.range.m_max) == ((low, 1) if "m" in axes else (0, 0))
    walked_m = {cell.param("m") for cell in report.cells}
    assert walked_m <= set(range(report.range.m_min, report.range.m_max + 1))
    assert {cell.param("b") for cell in report.cells} - {None} <= set(report.range.b_list)
    # A conjecture cell's k is the convolution order drawn from the grid's k.
    assert any(cell.param("k") is not None for cell in report.cells) == ("k" in axes)


def test_axis_echo_examples():
    t1 = verify_claim("t1", GridRange(m_min=0, m_max=1, n_max=2, k_list=(0,), b_list=(1, 2)))
    assert "range: m in [1, 1], n <= 2\n" in t1.render_text()
    c11 = verify_claim("c11", GridRange(m_min=2, m_max=3, n_max=2, k_list=(1,)))
    assert "range: m in [0, 0], n <= 2, k in [1]\n" in c11.render_text()
    assert {cell.param("m") for cell in c11.cells} == {0}
    assert resolve_grid("c11") == CLAIMS["c11"].default
