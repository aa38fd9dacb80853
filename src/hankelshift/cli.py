"""Command line front end.

Subcommands: ``gen`` (sequence terms), ``det`` (one determinant), ``table``
(a grid of determinants) and ``verify`` (claim checking).  Data goes to
standard output (or ``--out``), diagnostics to standard error.  Exit codes:
0 success, 1 computation error, 2 usage error, 3 failing proven claim
(a bug), 4 failing conjecture (a discovery).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

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

FAMILY_NAMES = (
    "catalan",
    "central-binomial",
    "m-numbers",
    "narayana-c",
    "narayana-b",
    "conv",
)

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
    parser = argparse.ArgumentParser(
        prog="hankelshift",
        description="Exact Hankel determinants of shifted Catalan-type sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", required=True, choices=FAMILY_NAMES)
        p.add_argument("--b", type=int, default=0,
                       help="integer parameter for --family m-numbers (default 0)")
        p.add_argument("--k", type=int, default=None,
                       help="convolution order for --family conv")

    def add_output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")

    gen = sub.add_parser("gen", help="emit sequence terms over an index range")
    add_family_flags(gen)
    gen.add_argument("--from", dest="start", type=int, required=True,
                     help="first index (may be negative; negative terms are 0)")
    gen.add_argument("--to", dest="stop", type=int, required=True, help="last index, inclusive")
    add_output_flags(gen)

    det = sub.add_parser("det", help="one exact Hankel determinant")
    add_family_flags(det)
    det.add_argument("--shift", type=int, required=True)
    det.add_argument("--size", type=int, required=True)
    det.add_argument("--engine", choices=(hankel.AUTO,) + hankel.ENGINES, default=hankel.AUTO)
    add_output_flags(det)

    table = sub.add_parser("table", help="grid of determinants over shifts and sizes")
    add_family_flags(table)
    table.add_argument("--shift", type=int, required=True, help="smallest shift")
    table.add_argument("--shift-max", type=int, default=None,
                       help="largest shift (default: same as --shift)")
    table.add_argument("--n-max", type=int, required=True,
                       help="largest size, inclusive; negative means an empty grid")
    add_output_flags(table)

    ver = sub.add_parser("verify", help="check a claim over a parameter grid")
    ver.add_argument("claim", choices=tuple(verify.CLAIMS))
    ver.add_argument("--m-min", type=int, default=None)
    ver.add_argument("--m-max", type=int, default=None)
    ver.add_argument("--n-max", type=int, default=None)
    ver.add_argument("--k", type=_int_list, default=None,
                     help="comma-separated convolution parameters, e.g. --k 1,2,3")
    ver.add_argument("--b", type=_int_list, default=None,
                     help="comma-separated b values, e.g. --b=-2,-1,0,1")
    add_output_flags(ver)

    return parser


def make_family(args: argparse.Namespace, parser: argparse.ArgumentParser) -> SequenceFamily:
    name = args.family
    if name == "catalan":
        return Catalan()
    if name == "central-binomial":
        return CentralBinomial()
    if name == "m-numbers":
        return MNumbers(args.b)
    if name == "narayana-c":
        return NarayanaC()
    if name == "narayana-b":
        return NarayanaB()
    if args.k is None or args.k < 1:
        parser.error("--family conv requires --k with a positive integer")
    return ConvCatalan(args.k)


def _csv_text(rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _run_gen(args, parser) -> tuple[str, int]:
    if args.start > args.stop:
        parser.error("--from must not exceed --to")
    family = make_family(args, parser)
    indices = range(args.start, args.stop + 1)
    terms = [family.term(n) for n in indices]
    if args.format == "text":
        return " ".join(str(t) for t in terms) + "\n", EXIT_OK
    if args.format == "json":
        payload = {
            "family": family.label,
            "from": args.start,
            "to": args.stop,
            "terms": [str(t) for t in terms],
        }
        return json.dumps(payload, indent=2) + "\n", EXIT_OK
    rows = [["n", "value"]] + [[str(n), str(t)] for n, t in zip(indices, terms)]
    return _csv_text(rows), EXIT_OK


def _run_det(args, parser) -> tuple[str, int]:
    if args.size < 0:
        parser.error("--size must be >= 0")
    family = make_family(args, parser)
    result = hankel.det(hankel.HankelSpec(family, args.shift, args.size), engine=args.engine)
    print(
        f"# family={family.label} shift={args.shift} size={args.size} engine={result.engine}",
        file=sys.stderr,
    )
    if args.format == "text":
        return str(result.value) + "\n", EXIT_OK
    if args.format == "json":
        payload = {
            "family": family.label,
            "shift": args.shift,
            "size": args.size,
            "engine": result.engine,
            "value": str(result.value),
        }
        return json.dumps(payload, indent=2) + "\n", EXIT_OK
    rows = [
        ["family", "shift", "size", "engine", "value"],
        [family.label, str(args.shift), str(args.size), result.engine, str(result.value)],
    ]
    return _csv_text(rows), EXIT_OK


def _run_table(args, parser) -> tuple[str, int]:
    shift_max = args.shift_max if args.shift_max is not None else args.shift
    if shift_max < args.shift:
        parser.error("--shift-max must not be below --shift")
    family = make_family(args, parser)
    sizes = range(args.n_max + 1)
    shifts = range(args.shift, shift_max + 1)
    grid = {
        m: [hankel.det(hankel.HankelSpec(family, m, n)).value for n in sizes]
        for m in shifts
    }
    if args.format == "json":
        payload = {
            "family": family.label,
            "shift_min": args.shift,
            "shift_max": shift_max,
            "n_max": args.n_max,
            "rows": [{"m": m, "values": [str(v) for v in grid[m]]} for m in shifts],
        }
        return json.dumps(payload, indent=2) + "\n", EXIT_OK
    if args.format == "csv":
        header = ["m\\n"] + [str(n) for n in sizes]
        rows = [header] + [[str(m)] + [str(v) for v in grid[m]] for m in shifts]
        return _csv_text(rows), EXIT_OK
    lines = [f"m={m}: " + ", ".join(str(v) for v in grid[m]) for m in shifts]
    return "\n".join(lines) + "\n", EXIT_OK


def _grid_from_flags(args, parser) -> verify.GridRange:
    base = verify.CLAIMS[args.claim].default
    grid = verify.GridRange(
        m_min=args.m_min if args.m_min is not None else base.m_min,
        m_max=args.m_max if args.m_max is not None else base.m_max,
        n_max=args.n_max if args.n_max is not None else base.n_max,
        k_list=args.k if args.k is not None else base.k_list,
        b_list=args.b if args.b is not None else base.b_list,
    )
    try:
        return verify.resolve_grid(args.claim, grid)
    except ValueError as exc:
        parser.error(str(exc))


def _report_csv(report: verify.Report) -> str:
    header = ["k", "b", "m", "n", "expected", "actual", "pass"]
    rows = [header]
    for cell in report.cells:
        params = dict(cell.params)
        rows.append(
            [
                str(params.get("k", "")),
                str(params.get("b", "")),
                str(params.get("m", "")),
                str(params.get("n", "")),
                str(cell.expected),
                str(cell.actual),
                "true" if cell.passed else "false",
            ]
        )
    return _csv_text(rows)


def _run_verify(args, parser) -> tuple[str, int]:
    grid = _grid_from_flags(args, parser)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    runners = {
        "gen": _run_gen,
        "det": _run_det,
        "table": _run_table,
        "verify": _run_verify,
    }
    try:
        text, code = runners[args.command](args, parser)
    except SystemExit as exc:  # parser.error() inside a runner
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ExactComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        _emit(text, args.out)
    except OSError as exc:
        if args.out is None:
            raise
        print(f"hankelshift: error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
