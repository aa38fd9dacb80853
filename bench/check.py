"""Independent check of every op's output.

Each value a CLI request prints is compared with a value reached by another
route than the one the program took, without importing the package:

* sequence terms come from formulas of the benchmark's own (ballot numbers
  for convolution powers, the generating-function recurrence for
  m-numbers, the 1/n form of the Narayana numbers);
* integer determinants come from the benchmark's own fraction-free
  elimination over those terms;
* a polynomial determinant must be printed in canonical form, and its
  value at several integer points t must equal the integer determinant of
  the benchmark's own Narayana terms evaluated at the same t.  The points
  are 1, -2 and two 48-bit integers drawn from the determinant's family,
  shift and size; a wrong polynomial of degree d agrees at a drawn point
  with probability at most d / 2**47.

All of this runs in the benchmark's parent process, after the timed loop.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re

POLY_FAMILIES = ("narayana-c", "narayana-b")


class CheckFailed(Exception):
    pass


def _int_det(rows: list[list[int]]) -> int:
    """Fraction-free elimination with row pivoting; every division is exact."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, row_k = a[k][k], a[k]
        for i in range(k + 1, n):
            row_i, lead = a[i], a[i][k]
            for j in range(k + 1, n):
                q, r = divmod(pivot * row_i[j] - lead * row_k[j], prev)
                if r:
                    raise CheckFailed("inexact division in the reference elimination")
                row_i[j] = q
        prev = pivot
    return sign * a[-1][-1]


def poly_text(coeffs: list[int]) -> str:
    """Canonical text of an ascending coefficient list, e.g. 1+3*t+t^2."""
    parts = []
    for d, c in enumerate(coeffs):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        var = "" if d == 0 else ("t" if d == 1 else f"t^{d}")
        body = str(abs(c)) if d == 0 else (var if abs(c) == 1 else f"{abs(c)}*{var}")
        parts.append(sign + body)
    return "".join(parts) or "0"


_POLY_TERM = re.compile(r"([+-]?)(\d*)\*?(t?)(?:\^(\d+))?")


def parse_poly(text: str) -> list[int]:
    """Ascending coefficients of a polynomial printed in canonical form."""
    coeffs: dict[int, int] = {}
    pos = 0
    while pos < len(text):
        m = _POLY_TERM.match(text, pos)
        sign, num, var, exp = m.groups()
        if m.end() == pos or (not num and not var):
            raise CheckFailed(f"cannot read a polynomial at offset {pos}")
        d = 0 if not var else (int(exp) if exp else 1)
        coeffs[d] = coeffs.get(d, 0) + (-1 if sign == "-" else 1) * int(num or 1)
        pos = m.end()
    out = [0] * (max(coeffs, default=-1) + 1)
    for d, c in coeffs.items():
        out[d] = c
    while out and out[-1] == 0:
        out.pop()
    if poly_text(out) != text:
        raise CheckFailed("polynomial is not in canonical form")
    return out


def _at(coeffs: list[int], t: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * t + c
    return value


def fam_key(op: dict) -> tuple:
    return (op["family"], op.get("b"), op.get("k"))


class Oracle:
    """Reference terms and determinants, cached for the life of one run."""

    def __init__(self) -> None:
        self._terms: dict[tuple, object] = {}
        self._m_numbers: dict[int, list[int]] = {}
        self._dets: dict[tuple, object] = {}

    def _m_number(self, b: int, n: int) -> int:
        # M(x) = C(x) / (1 - b x C(x)), i.e. M_n = C_n + b * sum C_i M_{n-1-i}.
        seq = self._m_numbers.setdefault(b, [])
        cat = [self.term_value(("catalan", None, None), i) for i in range(n + 1)]
        while len(seq) <= n:
            m = len(seq)
            seq.append(cat[m] + b * sum(cat[i] * seq[m - 1 - i] for i in range(m)))
        return seq[n]

    def term_value(self, fam: tuple, n: int):
        """Term n as an int, or as an ascending coefficient list for Narayana families."""
        key = (fam, n)
        if key not in self._terms:
            self._terms[key] = self._term(fam, n)
        return self._terms[key]

    def _term(self, fam: tuple, n: int):
        name, b, k = fam
        if n < 0:
            return [] if name in POLY_FAMILIES else 0
        prev = self._terms.get((fam, n - 1)) if n else None
        if name == "catalan":
            return math.comb(2 * n, n) // (n + 1)
        if name == "central-binomial":
            # Gen windows walk n upwards, so step by the ratio 2(2n-1)/n.
            if prev is not None:
                return prev * 2 * (2 * n - 1) // n
            return 2 * math.comb(2 * n - 1, n) if n else 1
        if name == "conv":
            # Ballot numbers, stepped by their ratio (2n+k-1)(2n+k-2) / (n (n+k)).
            if prev is not None:
                return prev * (2 * n + k - 1) * (2 * n + k - 2) // (n * (n + k))
            return math.comb(2 * n + k - 1, n) - math.comb(2 * n + k - 1, n - 1) if n else 1
        if name == "m-numbers":
            return self._m_number(b, n)
        row = [1]
        for j in range(1, n + 1):
            row.append(row[-1] * (n - j + 1) // j)
        if name == "narayana-c":
            return [row[j] * row[j - 1] // n for j in range(1, n + 1)] if n else [1]
        if name == "narayana-b":
            return [c * c for c in row]
        raise CheckFailed(f"unknown family {name!r}")

    def term_text(self, fam: tuple, n: int) -> str:
        value = self.term_value(fam, n)
        return poly_text(value) if isinstance(value, list) else str(value)

    def _reference(self, fam: tuple, shift: int, size: int):
        """d_shift(size) as an int, or for a polynomial family as a dict
        {t: value at t} over the family's evaluation points."""
        key = (fam, shift, size)
        if key not in self._dets:
            band = [self.term_value(fam, shift + s) for s in range(max(0, 2 * size - 1))]
            if fam[0] in POLY_FAMILIES:
                rng = random.Random(f"{fam[0]}:{shift}:{size}")
                points = (1, -2, rng.getrandbits(47) | 1 << 47, -(rng.getrandbits(47) | 1 << 47))
                self._dets[key] = {t: _int_det(_hankel([_at(c, t) for c in band], size))
                                   for t in points}
            else:
                self._dets[key] = _int_det(_hankel(band, size))
        return self._dets[key]

    def det_matches(self, fam: tuple, shift: int, size: int, text: str) -> bool:
        """Whether ``text`` is the program's correct print of d_shift(size)."""
        expected = self._reference(fam, shift, size)
        if isinstance(expected, int):
            return text == str(expected)
        coeffs = parse_poly(text)
        return all(_at(coeffs, t) == value for t, value in expected.items())


def _hankel(band: list, size: int) -> list[list]:
    return [[band[i + j] for j in range(size)] for i in range(size)]


def _csv_rows(text: str) -> list[list[str]]:
    csv.field_size_limit(1 << 30)  # a Narayana term in a gen window can exceed the default
    return list(csv.reader(io.StringIO(text)))


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _check_gen(op: dict, out: str, oracle: Oracle) -> int:
    indices = range(op["start"], op["stop"] + 1)
    fmt = op["format"]
    if fmt == "text":
        terms = out.rstrip("\n").split(" ")
    elif fmt == "json":
        terms = json.loads(out)["terms"]
    else:
        rows = _csv_rows(out)
        _expect(rows[0] == ["n", "value"], "bad csv header")
        _expect([int(r[0]) for r in rows[1:]] == list(indices), "bad csv indices")
        terms = [r[1] for r in rows[1:]]
    _expect(len(terms) == len(indices), f"{len(terms)} terms for {len(indices)} indices")
    fam = fam_key(op)
    for n, text in zip(indices, terms):
        _expect(text == oracle.term_text(fam, n), f"term {n} differs")
    return len(terms)


def _check_det(op: dict, out: str, oracle: Oracle) -> int:
    fmt = op["format"]
    if fmt == "text":
        value = out.rstrip("\n")
    elif fmt == "json":
        value = json.loads(out)["value"]
    else:
        value = _csv_rows(out)[1][4]
    _expect(oracle.det_matches(fam_key(op), op["shift"], op["size"], value),
            f"d_{op['shift']}({op['size']}) differs")
    return 1


def _check_table(op: dict, out: str, oracle: Oracle) -> int:
    fmt = op["format"]
    shifts = list(range(op["lo"], op["hi"] + 1))
    if fmt == "text":
        grid = {}
        for line in out.rstrip("\n").split("\n"):
            head, _, body = line.partition(": ")
            grid[int(head[2:])] = body.split(", ")
    elif fmt == "json":
        grid = {row["m"]: row["values"] for row in json.loads(out)["rows"]}
    else:
        rows = _csv_rows(out)
        grid = {int(r[0]): r[1:] for r in rows[1:]}
    _expect(sorted(grid) == shifts, "table rows differ from the requested shifts")
    fam = fam_key(op)
    for m in shifts:
        _expect(len(grid[m]) == op["n_max"] + 1, f"row m={m} has the wrong length")
        for n, value in enumerate(grid[m]):
            _expect(oracle.det_matches(fam, m, n, value), f"d_{m}({n}) differs")
    return len(shifts) * (op["n_max"] + 1)


def _cell_spec(claim: str, params: dict) -> tuple[tuple, int, int]:
    """(family, shift, size) of the determinant a verify cell reports as actual."""
    m, n = params.get("m", 0), params["n"]
    theorem_family = {"t1": "catalan", "t6": "m-numbers", "t7": "central-binomial",
                      "t8": "narayana-c", "t9": "narayana-b"}
    if claim in theorem_family:
        return (theorem_family[claim], params.get("b"), None), -m, n
    order = params["k"]
    if claim == "patterns":
        return ("conv", None, order), 0, n
    # Even orders 2k sit at base shift 1-k, odd orders 2k-1 at 2-k.
    half = (order + 1) // 2
    base = (1 if order % 2 == 0 else 2) - half
    shift = {"c10": base - m, "c11": base, "c12": base + m}[claim]
    return ("conv", None, order), shift, n


def _check_verify(op: dict, out: str, oracle: Oracle) -> int:
    fmt = op["format"]
    claim = op["claim"]
    if fmt == "text":
        match = re.match(rf"claim {re.escape(claim)}: PASS \((\d+) cells\)\n", out)
        _expect(match is not None, "text report does not start with a PASS line")
        _expect(re.search(rf"^range: .*, n <= {op['n_max']}(,|$)", out, re.M) is not None,
                "text report range differs")
        return int(match.group(1))
    if fmt == "json":
        report = json.loads(out)
        _expect(report["claim_id"] == claim and report["all_pass"], "report is not a pass")
        _expect(report["range"]["n_max"] == op["n_max"], "report range differs")
        cells = [(c["params"], c["actual"], c["pass"]) for c in report["cells"]]
    else:
        rows = _csv_rows(out)
        _expect(rows[0] == ["k", "b", "m", "n", "expected", "actual", "pass"], "bad csv header")
        cells = [({name: int(v) for name, v in zip("kbmn", r[:4]) if v != ""},
                  r[5], r[6] == "true") for r in rows[1:]]
    _expect(bool(cells), "report has no cells")
    for params, actual, passed in cells:
        _expect(passed, f"cell {params} is not a pass")
        fam, shift, size = _cell_spec(claim, params)
        _expect(oracle.det_matches(fam, shift, size, actual), f"cell {params} differs")
    return len(cells)


# Exit codes of a verify op whose own check found a failing claim.
VERIFY_FAILING = (3, 4)


def check_op(op: dict, code, out: str, err: str, oracle: Oracle) -> tuple[bool, int, bool, str]:
    """(ok, values delivered, wrong value, reason) for one executed op.

    Any exception, exit code other than 0, or value that differs from the
    reference makes the op a failure that delivered no values.  A wrong
    value is a failure that printed a result: a value that differs from the
    reference, or a verify report of a failing claim.
    """
    if code != 0:
        if op["kind"] == "verify" and code in VERIFY_FAILING:
            return False, 0, True, f"exit {code}: claim {op['claim']} reported failing"
        last = err.strip().splitlines()[-1] if err.strip() else ""
        return False, 0, False, f"exit {code}: {last}"
    try:
        kind = op["kind"]
        if kind == "gen":
            cells = _check_gen(op, out, oracle)
        elif kind == "det":
            cells = _check_det(op, out, oracle)
        elif kind == "table":
            cells = _check_table(op, out, oracle)
        else:
            cells = _check_verify(op, out, oracle)
    except (CheckFailed, ValueError, KeyError, IndexError, TypeError, csv.Error) as exc:
        return False, 0, True, f"check: {type(exc).__name__}: {exc}"
    return True, cells, False, ""
