"""Command line interface tests (run in process through main, or in a fresh interpreter)."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hankelshift import cli, hankel
from hankelshift.cli import (
    EXIT_COUNTEREXAMPLE,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_THEOREM_FAILURE,
    EXIT_USAGE,
    FAMILIES,
    main,
)
from hankelshift.sequences import catalan_number
from hankelshift.verify import CLAIMS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_catalan_with_negative_indices(capsys):
    code, out, _ = run(capsys, "gen", "--family", "catalan", "--from", "-2", "--to", "5")
    assert code == EXIT_OK
    assert out == "0 0 1 1 2 5 14 42\n"


def test_gen_convolution_power(capsys):
    code, out, _ = run(capsys, "gen", "--family", "conv", "--k", "4", "--from", "0", "--to", "4")
    assert code == EXIT_OK
    assert out == "1 4 14 48 165\n"


def test_gen_narayana_polynomials(capsys):
    code, out, _ = run(capsys, "gen", "--family", "narayana-c", "--from", "0", "--to", "3")
    assert code == EXIT_OK
    assert out == "1 1 1+t 1+3*t+t^2\n"


def test_cold_catalan_request_matches_warm_value():
    # A fresh interpreter has no cached terms, so the first term asked for is n=3000.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "hankelshift.cli", "gen", "--family", "catalan",
         "--from", "3000", "--to", "3000"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    warm = [catalan_number(n) for n in range(3001)][-1]
    assert proc.stdout == f"{warm}\n"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_gen_starts_without_the_engines_or_the_claims(fmt):
    # Each command runs in a fresh interpreter, so whatever gen imports is
    # start-up time on every call.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = ("import sys; from hankelshift import cli; "
              "code = cli.main(['gen', '--family', 'm-numbers', '--b', '2', '--from', '0', "
              f"'--to', '3', '--format', '{fmt}']); "
              "print(code, sorted(m for m in sys.modules "
              "if m.startswith('hankelshift') or m == 'dataclasses'))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} " + str(
        ["hankelshift", "hankelshift.cli", "hankelshift.errors", "hankelshift.ring",
         "hankelshift.sequences"])


def test_parser_choices_are_the_engines_and_claims_in_order():
    assert cli._ENGINE_CHOICES == (hankel.AUTO,) + hankel.ENGINES
    assert cli._CLAIM_IDS == tuple(CLAIMS)


@pytest.mark.parametrize("family, n, value", [
    ("catalan", 8000, lambda: math.comb(16000, 8000) // 8001),
    ("central-binomial", 7300, lambda: math.comb(14600, 7300)),
])
def test_gen_prints_terms_past_the_int_str_digit_limit(family, n, value):
    # Over 4300 digits; a fresh interpreter starts with Python's default limit.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "hankelshift.cli", "gen", "--family", family,
         "--from", str(n), "--to", str(n)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stdout) > 4301
    # int() of the whole line would hit this interpreter's own limit; read 1000-digit chunks.
    digits, parsed = proc.stdout.strip(), 0
    for i in range(0, len(digits), 1000):
        parsed = parsed * 10 ** len(digits[i:i + 1000]) + int(digits[i:i + 1000])
    assert parsed == value()


def test_main_leaves_the_int_str_digit_limit_alone(capsys):
    before = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "gen", "--family", "catalan", "--from", "0", "--to", "2")
    assert (code, out) == (EXIT_OK, "1 1 2\n")
    assert sys.get_int_max_str_digits() == before


def test_integer_argument_past_the_int_str_digit_limit_is_usage_error(capsys):
    code, out, err = run(capsys, "det", "--family", "catalan", "--shift", "9" * 5000,
                         "--size", "2")
    assert code == EXIT_USAGE
    assert out == ""
    assert "invalid int value" in err


def test_gen_json_and_csv(capsys):
    code, out, _ = run(capsys, "gen", "--family", "catalan", "--from", "0", "--to", "2",
                       "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["terms"] == ["1", "1", "2"]
    code, out, _ = run(capsys, "gen", "--family", "catalan", "--from", "0", "--to", "2",
                       "--format", "csv")
    assert out == "n,value\n0,1\n1,1\n2,2\n"


def test_gen_usage_errors(capsys):
    code, _, _ = run(capsys, "gen", "--family", "catalan", "--from", "3", "--to", "1")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "gen", "--family", "conv", "--from", "0", "--to", "3")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "gen", "--family", "nope", "--from", "0", "--to", "3")
    assert code == EXIT_USAGE


def test_det_backward_catalan(capsys):
    # sixth entry of the backward row (1, 0, 0, -1, -5, -14, -30, ...)
    code, out, err = run(capsys, "det", "--family", "catalan", "--shift", "-2", "--size", "6")
    assert code == EXIT_OK
    assert out == "-30\n"
    assert "engine=" in err


EMPTY_DET = {
    "text": "1\n",
    "json": '{\n  "family": "catalan",\n  "shift": 0,\n  "size": 0,\n'
            '  "engine": "condensation",\n  "value": "1"\n}\n',
    "csv": "family,shift,size,engine,value\ncatalan,0,0,condensation,1\n",
}


@pytest.mark.parametrize("fmt", list(EMPTY_DET))
def test_det_empty_matrix_convention(capsys, fmt):
    code, out, _ = run(capsys, "det", "--family", "catalan", "--shift", "0", "--size", "0",
                       "--format", fmt)
    assert code == EXIT_OK
    assert out == EMPTY_DET[fmt]


def test_det_polynomial_value(capsys):
    code, out, _ = run(capsys, "det", "--family", "narayana-b", "--shift", "-1", "--size", "4")
    assert code == EXIT_OK
    assert out == "-4*t^3-4*t^4-4*t^5\n"


def test_det_json_includes_engine_and_spec(capsys):
    code, out, _ = run(capsys, "det", "--family", "m-numbers", "--b", "2", "--shift", "-1",
                       "--size", "4", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["family"] == "m-numbers(b=2)"
    assert data["shift"] == -1
    assert data["size"] == 4
    assert data["engine"] in ("bareiss", "condensation")
    assert data["value"] == "-3"


def test_det_forced_condensation_can_fail(capsys):
    for family, size in (("catalan", "4"), ("narayana-c", "6"), ("narayana-b", "4")):
        code, _, err = run(capsys, "det", "--family", family, "--shift", "-3", "--size", size,
                           "--engine", "condensation")
        assert code == EXIT_ERROR
        assert "error: zero interior minor while condensing" in err


def test_det_forced_cofactor_guard(capsys):
    code, _, err = run(capsys, "det", "--family", "catalan", "--shift", "0", "--size", "9",
                       "--engine", "cofactor")
    assert code == EXIT_ERROR


def test_table_single_backward_row(capsys):
    code, out, _ = run(capsys, "table", "--family", "catalan", "--shift", "-1",
                       "--shift-max", "-1", "--n-max", "6", "--format", "csv")
    assert code == EXIT_OK
    assert out == "m\\n,0,1,2,3,4,5,6\n-1,1,0,-1,-2,-3,-4,-5\n"


def test_table_convolution_diagonal(capsys):
    code, out, _ = run(capsys, "table", "--family", "conv", "--k", "3", "--shift", "0",
                       "--shift-max", "0", "--n-max", "8", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[1] == "0,1,1,0,-1,-1,0,1,1,0"


EMPTY_TABLE = {
    "text": "m=0: \n",
    "json": '{\n  "family": "catalan",\n  "shift_min": 0,\n  "shift_max": 0,\n'
            '  "n_max": -1,\n  "rows": [\n    {\n      "m": 0,\n      "values": []\n'
            '    }\n  ]\n}\n',
    "csv": "m\\n\n0\n",
}


@pytest.mark.parametrize("fmt", list(EMPTY_TABLE))
def test_table_empty_range_emits_header_only(capsys, fmt):
    code, out, _ = run(capsys, "table", "--family", "catalan", "--shift", "0",
                       "--n-max", "-1", "--format", fmt)
    assert code == EXIT_OK
    assert out == EMPTY_TABLE[fmt]


def test_table_agrees_with_det(capsys):
    code, out, _ = run(capsys, "table", "--family", "narayana-c", "--shift", "-2",
                       "--shift-max", "0", "--n-max", "4", "--format", "json")
    data = json.loads(out)
    for row in data["rows"]:
        for n, value in enumerate(row["values"]):
            code2, out2, _ = run(capsys, "det", "--family", "narayana-c",
                                 "--shift", str(row["m"]), "--size", str(n))
            assert out2.strip() == value


def test_verify_exit_codes_and_output(capsys):
    code, out, _ = run(capsys, "verify", "t1", "--m-max", "3", "--n-max", "12")
    assert code == EXIT_OK
    assert "claim t1: PASS" in out

    code, out, _ = run(capsys, "verify", "c11", "--k", "2", "--n-max", "15")
    assert code == EXIT_OK
    assert "not proof" in out

    code, out, _ = run(capsys, "verify", "t6", "--b=-1,0,1,2,3", "--m-max", "4",
                       "--n-max", "10")
    assert code == EXIT_OK


def test_verify_json_matches_report_schema(capsys):
    code, out, _ = run(capsys, "verify", "t8", "--m-max", "1", "--n-max", "5",
                       "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["claim_id"] == "t8"
    assert data["all_pass"] is True
    assert set(data) == {"claim_id", "range", "cells", "all_pass", "counterexamples"}


def test_verify_csv_cells(capsys):
    code, out, _ = run(capsys, "verify", "patterns", "--k", "4", "--n-max", "6",
                       "--format", "csv")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "k,b,m,n,expected,actual,pass"
    assert len(lines) == 8
    assert all(line.endswith("true") for line in lines[1:])


def test_verify_unknown_claim_is_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "t2")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv", [("patterns", "--k", "8"), ("patterns", "--k", "3,2"),
                                  ("c10", "--k", "0"), ("c11", "--k", "1,-1"),
                                  ("c12", "--k", "0")])
def test_verify_k_outside_claim_domain_is_usage_error(argv, capsys):
    code, out, err = run(capsys, "verify", *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"hankelshift verify: error: claim {argv[0]} takes k" in err


def test_verify_empty_b_list_echoes_walked_default(capsys):
    code, out, _ = run(capsys, "verify", "t6", "--b=", "--m-max", "1", "--n-max", "3")
    assert code == EXIT_OK
    assert "claim t6: PASS (24 cells)" in out
    assert "range: m in [1, 1], n <= 3, b in [-2, -1, 0, 1, 2, 3]" in out
    code, out, _ = run(capsys, "verify", "t6", "--b=", "--m-max", "1", "--n-max", "3",
                       "--format", "json")
    data = json.loads(out)
    assert data["range"]["b_list"] == [-2, -1, 0, 1, 2, 3]
    assert {cell["params"]["b"] for cell in data["cells"]} == set(data["range"]["b_list"])


@pytest.mark.parametrize("claim", ["c10", "c11", "c12", "patterns"])
def test_verify_empty_k_list_echoes_walked_default(claim, capsys):
    code, out, _ = run(capsys, "verify", claim, "--k=", "--n-max", "3")
    assert code == EXIT_OK
    k_list = list(CLAIMS[claim].default.k_list)
    assert f", k in {k_list}\n" in out
    _, csv_out, _ = run(capsys, "verify", claim, "--k=", "--n-max", "3", "--format", "csv")
    _, default_out, _ = run(capsys, "verify", claim, "--n-max", "3", "--format", "csv")
    assert csv_out == default_out


def test_verify_c12_echoes_the_m_range_it_walks(capsys):
    # c12 walks m <= k only, so --m-max above every k is echoed as the largest k.
    code, out, _ = run(capsys, "verify", "c12", "--k", "1", "--m-max", "5", "--n-max", "3")
    assert code == EXIT_OK
    assert "claim c12: PASS (16 cells)" in out
    assert "range: m in [0, 1], n <= 3, k in [1]\n" in out


@pytest.mark.parametrize("argv, shown", [
    (("t1", "--m-min", "4", "--m-max", "2"), "m in [4, 2], n <= 25"),
    (("t1", "--m-max", "0"), "m in [1, 0], n <= 25"),
    (("c12", "--m-min", "3", "--m-max", "1"), "m in [3, 1], n <= 15"),
    (("t1", "--n-max", "-1"), "m in [1, 5], n <= -1"),
    (("patterns", "--n-max", "-2"), "m in [0, 0], n <= -2"),
    # c12 walks m <= k only, so m_min above every k leaves no cell.
    (("c12", "--k", "1", "--m-min", "3", "--m-max", "3", "--n-max", "4"), "m in [3, 3], n <= 4"),
])
def test_verify_empty_grid_is_usage_error(argv, shown, capsys):
    code, out, err = run(capsys, "verify", *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"hankelshift verify: error: claim {argv[0]} has an empty grid: {shown}\n" in err


@pytest.mark.parametrize("argv", [
    ("gen", "--family", "catalan", "--from", "3", "--to", "1"),
    ("det", "--family", "catalan", "--shift", "0", "--size", "-1"),
    ("table", "--family", "catalan", "--shift", "2", "--shift-max", "1", "--n-max", "3"),
    ("det", "--family", "conv", "--shift", "0", "--size", "2"),
    ("verify", "t1", "--n-max", "-1"),
    # A repeated k or b value would walk, count and print its cells twice.
    ("verify", "t6", "--b", "1,1", "--m-max", "1", "--n-max", "2"),
    ("verify", "c11", "--k", "2,2", "--n-max", "2", "--format", "csv"),
])
def test_runner_usage_error_prints_the_subcommand_usage(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"usage: hankelshift {argv[0]} ")
    assert f"\nhankelshift {argv[0]}: error: " in err


def test_exit_code_mapping_for_failures(monkeypatch, capsys):
    # engineered failing reports: exit 3 for proven claims, 4 for conjectures
    from hankelshift import GridRange, Poly, Report, verify
    from hankelshift.verify import Cell

    def fake_verify_claim(claim_id, grid=None):
        bad = Cell((("m", 1), ("n", 1)), Poly.const(1), Poly.const(2))
        return Report(claim_id, GridRange(n_max=1), (bad,))

    monkeypatch.setattr(verify, "verify_claim", fake_verify_claim)
    assert main(["verify", "t1"]) == EXIT_THEOREM_FAILURE
    capsys.readouterr()
    assert main(["verify", "c10"]) == EXIT_COUNTEREXAMPLE
    capsys.readouterr()


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "c11", "--k", "1", "--n-max", "5",
                       "--format", "json", "--out", str(target))
    assert code == EXIT_OK
    assert out == ""
    data = json.loads(target.read_text())
    assert data["all_pass"] is True


@pytest.mark.parametrize("target, reason", [
    (Path("missing-dir") / "x.txt", "No such file or directory"),
    (Path("."), "Is a directory"),
])
def test_unwritable_out_path_is_usage_error(tmp_path, capsys, target, reason):
    path = tmp_path / target
    code, out, err = run(capsys, "det", "--family", "catalan", "--shift", "3", "--size", "4",
                         "--out", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.endswith(f"hankelshift: error: cannot write {path}: {reason}\n")
    assert "Traceback" not in err


def test_vanishing_recursion_divisor_exits_1_without_traceback(monkeypatch, capsys):
    monkeypatch.setattr(hankel, "_condense", lambda band: None)
    code, out, err = run(capsys, "verify", "t8", "--n-max", "3")
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("error: a divisor of the recursion")
    assert "Traceback" not in err


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    golden = (Path(__file__).parent / "golden"
              / "det_--family_narayana-c_--shift_4_--size_14_--format_text.out")
    try:
        assert run(capsys, "gen", "--family", "catalan", "--from", "0", "--to", "3")[:2] == (
            EXIT_OK, "1 1 2 5\n")
        code, out, err = run(capsys, "det", "--family", "narayana-c", "--shift", "4",
                             "--size", "fourteen")
        assert code == EXIT_USAGE and out == "" and "invalid int value" in err
        code, out, _ = run(capsys, "det", "--family", "narayana-c", "--shift", "4", "--size", "14")
        assert code == EXIT_OK and out.encode("utf-8") == golden.read_bytes()
        assert run(capsys, "table", "--family", "catalan", "--shift", "0", "--n-max", "3")[:2] == (
            EXIT_OK, "m=0: 1, 1, 1, 1\n")
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    assert build() is not build()


def test_byte_identical_reruns(capsys):
    args = ("verify", "c10", "--k", "1,2", "--m-max", "1", "--n-max", "6",
            "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def _mostly(valid, invalid):
    """Mostly a valid flag value, one time in sixteen one the parser must refuse."""
    return st.integers(0, 15).flatmap(lambda i: valid if i else invalid)


def _values(ints):
    return _mostly(ints.map(str), st.sampled_from(["x", "", "1,,2", "0x1"]))


def _choice(options):
    return _mostly(st.sampled_from(list(options)), st.just("nope"))


def _lists(ints):
    return st.lists(ints, max_size=3).map(lambda xs: ",".join(map(str, xs)))


# Small values keep each run fast: nothing refuses an oversized request up
# front yet, and `det --size 5000` would run for hours.
_SMALL, _INDEX, _K = st.integers(-6, 6), st.integers(-60, 60), st.integers(-1, 7)
_FAMILY = {"--family": _choice(FAMILIES), "--b": _values(_SMALL), "--k": _values(_K)}
_FORMAT = {"--format": _choice(["text", "json", "csv"])}
_FLAGS = {
    "gen": {**_FAMILY, "--from": _values(_INDEX), "--to": _values(_INDEX), **_FORMAT},
    "det": {**_FAMILY, "--shift": _values(_SMALL), "--size": _values(_SMALL),
            "--engine": _choice([hankel.AUTO, *hankel.ENGINES]), **_FORMAT},
    "table": {**_FAMILY, "--shift": _values(_SMALL), "--shift-max": _values(_SMALL),
              "--n-max": _values(_SMALL), **_FORMAT},
    "verify": {"--m-min": _values(_SMALL), "--m-max": _values(_SMALL),
               "--k": _values(_K) | _lists(_K), "--b": _values(_SMALL) | _lists(_SMALL),
               **_FORMAT},
}


@pytest.mark.parametrize("command", [*_FLAGS, "nope"])
@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_exits_with_a_documented_code_and_no_traceback(command, data):
    argv = [command]
    if command == "verify":
        # n-max is always given and small, so no claim walks its default grid.
        argv += [data.draw(_choice(CLAIMS)), "--n-max", str(data.draw(st.integers(-1, 6)))]
    for flag, values in _FLAGS.get(command, {}).items():
        if data.draw(st.integers(0, 9)):
            argv.append(f"{flag}={data.draw(values)}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_USAGE, EXIT_THEOREM_FAILURE, EXIT_COUNTEREXAMPLE)
    assert "Traceback" not in err.getvalue()
