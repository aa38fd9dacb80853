"""Golden CLI outputs: each command's stdout must match its committed file byte for byte.

The files under ``tests/golden/`` were written by the CLI itself and are
kept as a regression net for refactors that must not change what users
see.  A deliberate change of output means replacing the file by hand in
the same change, so the diff shows it.
"""

import re
import shlex
from pathlib import Path

import pytest

from hankelshift.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

FORMATS = ("text", "json", "csv")
CLAIMS = ("t1", "t6", "t7", "t8", "t9", "c10", "c11", "c12", "patterns")

COMMANDS = (
    [f"gen --family catalan --from -2 --to 12 --format {f}" for f in FORMATS]
    + [f"gen --family narayana-b --from 0 --to 5 --format {f}" for f in FORMATS]
    + [f"det --family catalan --shift -3 --size 12 --format {f}" for f in FORMATS]
    + [f"det --family narayana-c --shift -2 --size 5 --format {f}" for f in FORMATS]
    + [f"table --family conv --k 3 --shift -2 --shift-max 1 --n-max 8 --format {f}"
       for f in FORMATS]
    + [f"table --family narayana-b --shift -1 --shift-max 0 --n-max 4 --format {f}"
       for f in FORMATS]
    # Polynomial determinants large enough for the packed-integer ring path.
    + [
        "det --family narayana-c --shift 4 --size 14 --format text",
        "det --family narayana-b --shift -4 --size 14 --format json",
        "table --family narayana-b --shift 1 --shift-max 2 --n-max 12 --format csv",
    ]
    # Whole rows over backward shifts: zero triangles up to m = 8, interior
    # zeros of conv near shift 0, and Poly rows under a zero triangle.
    + [
        "table --family conv --k 5 --shift -6 --shift-max 6 --n-max 25 --format csv",
        "table --family m-numbers --b -2 --shift -8 --shift-max 8 --n-max 21 --format text",
        "table --family narayana-c --shift -3 --shift-max 2 --n-max 10 --format json",
    ]
    # Polynomial Bareiss on operands carrying powers of t (shift 0), a
    # forward shift, and Poly rows under zero triangles.
    + [
        "det --family narayana-c --shift 0 --size 16 --format text",
        "det --family narayana-b --shift 3 --size 13 --format text",
        "table --family narayana-c --shift -4 --shift-max 4 --n-max 12 --format csv",
    ]
    # Rows with interior runs of one, two and three vanishing minors at sizes
    # past 25.
    + [
        "table --family conv --k 7 --shift -6 --shift-max 2 --n-max 40 --format csv",
        "table --family m-numbers --b -1 --shift 1 --shift-max 7 --n-max 40 --format text",
    ]
    # Deep term windows of every stepped family, so the recurrences are
    # pinned far past the sizes the tables reach.
    + [
        "gen --family conv --k 4 --from 3990 --to 4000 --format csv",
        "gen --family central-binomial --from 3995 --to 4000 --format text",
        "gen --family m-numbers --b -2 --from 290 --to 300 --format json",
        "gen --family m-numbers --b 3 --from 290 --to 300 --format text",
        "gen --family narayana-c --from 195 --to 200 --format text",
        "gen --family narayana-b --from 195 --to 200 --format csv",
    ]
    + [f"verify {c}" for c in CLAIMS]
    + [f"verify {c} --n-max 6 --format {f}" for c in CLAIMS for f in FORMATS]
    + [
        "verify c10 --k 3,1,2 --m-min 1 --m-max 2 --n-max 9",
        "verify t6 --b=5,-3 --m-max 3 --n-max 7 --format csv",
        "verify patterns --k 7,3 --n-max 30 --format json",
    ]
)


def golden_path(command: str) -> Path:
    return GOLDEN / (re.sub(r"[^A-Za-z0-9.-]+", "_", command) + ".out")


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_matches_golden(command, capsys):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.encode("utf-8") == golden_path(command).read_bytes()


def test_every_golden_file_has_a_command():
    expected = {golden_path(c).name for c in COMMANDS}
    assert {p.name for p in GOLDEN.glob("*.out")} == expected
