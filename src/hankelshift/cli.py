"""Command line front end.

Subcommands: ``gen`` (sequence terms), ``det`` (one determinant), ``table``
(a grid of determinants) and ``verify`` (claim checking).  Data goes to
standard output (or ``--out``), diagnostics to standard error.  Exit codes:
0 success, 1 computation error, 2 usage error, 3 failing proven claim
(a bug), 4 failing conjecture (a discovery).  ``gen``, ``det`` and ``table``
turn each value into a string once and build their text, JSON and CSV views
from the same strings.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import fields, replace

from . import hankel, verify
from .errors import ExactComputationError
from .sequences import (
    Catalan,
    CentralBinomial,
    ConvCatalan,
    MNumbers,
    NarayanaB,
    NarayanaC,
    SequenceFamily,
)

# CLI family name -> constructor from the parsed flags, in --help order.
FAMILIES = {
    "catalan": lambda args: Catalan(),
    "central-binomial": lambda args: CentralBinomial(),
    "m-numbers": lambda args: MNumbers(args.b),
    "narayana-c": lambda args: NarayanaC(),
    "narayana-b": lambda args: NarayanaB(),
    "conv": lambda args: ConvCatalan(args.k),
}

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_THEOREM_FAILURE = 3
EXIT_COUNTEREXAMPLE = 4


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the whole command line; :func:`main` keeps one per process."""
    parser = argparse.ArgumentParser(
        prog="hankelshift",
        description="Exact Hankel determinants of shifted Catalan-type sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    gen = sub.add_parser("gen", help="emit sequence terms over an index range")
    det = sub.add_parser("det", help="one exact Hankel determinant")
    table = sub.add_parser("table", help="grid of determinants over shifts and sizes")
    ver = sub.add_parser("verify", help="check a claim over a parameter grid")

    for p in (gen, det, table):
        p.add_argument("--family", required=True, choices=tuple(FAMILIES))
        p.add_argument("--b", type=int, default=0,
                       help="integer parameter for --family m-numbers (default 0)")
        p.add_argument("--k", type=int, default=None,
                       help="convolution order for --family conv")

    gen.add_argument("--from", dest="start", type=int, required=True,
                     help="first index (may be negative; negative terms are 0)")
    gen.add_argument("--to", dest="stop", type=int, required=True, help="last index, inclusive")

    det.add_argument("--shift", type=int, required=True)
    det.add_argument("--size", type=int, required=True)
    det.add_argument("--engine", choices=(hankel.AUTO,) + hankel.ENGINES, default=hankel.AUTO)

    table.add_argument("--shift", type=int, required=True, help="smallest shift")
    table.add_argument("--shift-max", type=int, default=None,
                       help="largest shift (default: same as --shift)")
    table.add_argument("--n-max", type=int, required=True,
                       help="largest size, inclusive; negative means an empty grid")

    # Dests are the GridRange field names, so _run_verify can replace() them in.
    ver.add_argument("claim", choices=tuple(verify.CLAIMS))
    ver.add_argument("--m-min", type=int, default=None)
    ver.add_argument("--m-max", type=int, default=None)
    ver.add_argument("--n-max", type=int, default=None)
    ver.add_argument("--k", dest="k_list", metavar="K", type=_int_list, default=None,
                     help="comma-separated convolution parameters, e.g. --k 1,2,3")
    ver.add_argument("--b", dest="b_list", metavar="B", type=_int_list, default=None,
                     help="comma-separated b values, e.g. --b=-2,-1,0,1")

    for p, run in ((gen, _run_gen), (det, _run_det), (table, _run_table), (ver, _run_verify)):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        p.set_defaults(run=run, parser=p)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser :func:`main` uses, built on the first call."""
    return build_parser()


def make_family(args: argparse.Namespace) -> SequenceFamily:
    if args.family == "conv" and (args.k is None or args.k < 1):
        args.parser.error("--family conv requires --k with a positive integer")
    return FAMILIES[args.family](args)


def _csv_text(rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


def _view(args, text: str, payload: dict, rows: list[list[str]]) -> str:
    """The one of a result's three views that ``--format`` names."""
    if args.format == "json":
        return json.dumps(payload, indent=2) + "\n"
    if args.format == "csv":
        return _csv_text(rows)
    return text


def _run_gen(args) -> tuple[str, int]:
    if args.start > args.stop:
        args.parser.error("--from must not exceed --to")
    family = make_family(args)
    indices = range(args.start, args.stop + 1)
    terms = [str(family.term(n)) for n in indices]
    payload = {
        "family": family.label,
        "from": args.start,
        "to": args.stop,
        "terms": terms,
    }
    rows = [["n", "value"]] + [[str(n), t] for n, t in zip(indices, terms)]
    return _view(args, " ".join(terms) + "\n", payload, rows), EXIT_OK


def _run_det(args) -> tuple[str, int]:
    if args.size < 0:
        args.parser.error("--size must be >= 0")
    family = make_family(args)
    result = hankel.det(hankel.HankelSpec(family, args.shift, args.size), engine=args.engine)
    print(
        f"# family={family.label} shift={args.shift} size={args.size} engine={result.engine}",
        file=sys.stderr,
    )
    value = str(result.value)
    payload = {
        "family": family.label,
        "shift": args.shift,
        "size": args.size,
        "engine": result.engine,
        "value": value,
    }
    rows = [list(payload), [str(field) for field in payload.values()]]
    return _view(args, value + "\n", payload, rows), EXIT_OK


def _run_table(args) -> tuple[str, int]:
    shift_max = args.shift_max if args.shift_max is not None else args.shift
    if shift_max < args.shift:
        args.parser.error("--shift-max must not be below --shift")
    family = make_family(args)
    sizes = range(args.n_max + 1)
    shifts = range(args.shift, shift_max + 1)
    grid = {
        m: [str(v) for v in hankel.leading_minors(hankel.HankelSpec(family, m, args.n_max))]
        if sizes else []
        for m in shifts
    }
    lines = [f"m={m}: " + ", ".join(grid[m]) for m in shifts]
    payload = {
        "family": family.label,
        "shift_min": args.shift,
        "shift_max": shift_max,
        "n_max": args.n_max,
        "rows": [{"m": m, "values": grid[m]} for m in shifts],
    }
    header = ["m\\n"] + [str(n) for n in sizes]
    rows = [header] + [[str(m)] + grid[m] for m in shifts]
    return _view(args, "\n".join(lines) + "\n", payload, rows), EXIT_OK


def _report_csv(report: verify.Report) -> str:
    columns = ("k", "b", "m", "n")
    rows = [[*columns, "expected", "actual", "pass"]]
    for cell in report.cells:
        params = dict(cell.params)
        rows.append(
            [str(params.get(name, "")) for name in columns]
            + [str(cell.expected), str(cell.actual), "true" if cell.passed else "false"]
        )
    return _csv_text(rows)


def _run_verify(args) -> tuple[str, int]:
    given = {f.name: getattr(args, f.name) for f in fields(verify.GridRange)
             if getattr(args, f.name) is not None}
    try:
        grid = verify.resolve_grid(args.claim, replace(verify.CLAIMS[args.claim].default, **given))
    except ValueError as exc:
        args.parser.error(str(exc))
    report = verify.verify_claim(args.claim, grid)
    if args.format == "json":
        text = report.to_json() + "\n"
    elif args.format == "csv":
        text = _report_csv(report)
    else:
        text = report.render_text() + "\n"
    if report.all_pass:
        code = EXIT_OK
    elif report.is_theorem:
        code = EXIT_THEOREM_FAILURE
    else:
        code = EXIT_COUNTEREXAMPLE
    return text, code


def main(argv: list[str] | None = None) -> int:
    """Run one request and return its exit code.

    Every call in a process parses with one parser, built on the first call;
    parsing does not change it, so one call never depends on another.
    """
    try:
        args = _parser().parse_args(argv)
        text, code = args.run(args)
    except SystemExit as exc:  # argparse, or args.parser.error() inside a runner
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ExactComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.out is None:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"hankelshift: error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
