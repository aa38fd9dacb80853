#!/usr/bin/env python3
"""hankelshift benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` as the tests do.  The op blocks are made from the seed and run in
a closed loop by one client, whole blocks until S seconds have passed; every
op's output is then checked against an independent route (``check.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
measures the first block twice, untraced and traced, instead of running
for S seconds.  The line before the result, starting with ``#``, holds the
provenance and the details behind the metrics; the same record and, when
tracing, the spans are written under ``.bench_build/bench/``.
``bench/README.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, closed_loop, make_blocks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "bench"

# Fresh interpreters timed for setup_s before and again after the timed
# loop, so that the median spans the run's drift in CPU speed.
SETUP_PROBES = 8
PROBE = ("import time; t = time.perf_counter(); import hankelshift.cli as c; "
         "c.build_parser(); print(time.perf_counter() - t, flush=True)")
OP_TIMEOUT_S = 120
END_TO_END_UNITS = {"latency_p50_s": "s", "latency_tail_s": "s", "cells_per_s": "1/s",
                    "setup_s": "s", "ok_frac": "ratio", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def provenance(workload: str, seed: int, ops: list[dict], loadavg) -> dict:
    digest = hashlib.sha256(json.dumps([op["argv"] for op in ops]).encode()).hexdigest()
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "ops_digest": digest,
            "git_commit": git_commit(), "source_digest": source.hexdigest(),
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": loadavg}


def git_commit() -> str | None:
    """HEAD's commit, or None where the checkout is not a git repository."""
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:  # no git on the machine
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def setup_probe() -> tuple[float, float]:
    """(seconds from spawn until ready to serve, seconds spent importing)."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE], stdout=subprocess.PIPE, text=True,
                          env=child_env(), cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=OP_TIMEOUT_S)
    if code != 0 or not line:
        raise RuntimeError(f"a fresh interpreter could not import hankelshift (exit {code})")
    return ready, float(line)


def run_in_process(ops, blocks, seconds, count, trace, spans_path) -> dict:
    job = {"ops": [op["argv"] for op in ops], "blocks": blocks, "seconds": seconds,
           "count": count, "trace": trace, "spans": str(spans_path)}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=json.dumps(job),
                          capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=4 * seconds + 3 * OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def run_cold(ops, blocks, seconds, count, trace, spans_path) -> dict:
    """One fresh interpreter per op; with ``trace`` the same ops are then
    replayed through coldboot.py, which installs the wrappers."""
    trace_file = OUT / "coldboot-trace.json"

    def step(i, traced=False, op_id=0):
        argv = ops[i]["argv"]
        if traced:
            cmd = [sys.executable, str(BENCH / "coldboot.py"), str(trace_file), str(op_id), *argv]
        else:
            cmd = [sys.executable, "-m", "hankelshift.cli", *argv]
        start = perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                                  cwd=ROOT, timeout=OP_TIMEOUT_S)
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code, out, err = None, "", f"timeout after {OP_TIMEOUT_S} s"
        return [i, perf_counter() - start, code, out, err]

    records, wall = closed_loop(step, blocks, seconds, count)
    if not trace:
        return {"records": records, "wall": wall}
    summaries = []
    op_ids = itertools.count()

    def traced_step(i):
        record = step(i, traced=True, op_id=next(op_ids))
        if trace_file.exists():  # not when the op was killed by its timeout
            with open(trace_file, encoding="utf-8") as handle:
                summaries.append(json.loads(handle.readline()))
                spans.write(handle.read())
            trace_file.unlink()
        return record

    with open(spans_path, "w", encoding="utf-8") as spans:
        traced, traced_wall = closed_loop(traced_step, [[r[0] for r in records]], count=1)
    import tracing

    return {"plain": records, "records": traced, "wall": traced_wall,
            "summary": tracing.merge(summaries)}


def corrupt(text: str) -> str:
    """Change the last digit of an op's output (for the self-test)."""
    return re.sub(r"(\d)(\D*)$", lambda m: str((int(m.group(1)) + 1) % 10) + m.group(2), text)


def check_records(ops, records, corrupt_first: bool) -> list[dict]:
    from check import Oracle, check_op

    oracle = Oracle()
    results = []
    for i, latency, code, out, err in records:
        if corrupt_first and code == 0:
            out, corrupt_first = corrupt(out), False
        ok, cells, wrong, reason = check_op(ops[i], code, out, err, oracle)
        results.append({"op": i, "latency_s": latency, "code": code, "ok": ok, "cells": cells,
                        "wrong": wrong, "reason": reason, "stdout_bytes": len(out.encode())})
    return results


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """(value, percentile, ops beyond it) at the highest whole percentile
    that leaves at least ten ops beyond it; the maximum if there are not
    eleven ops."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100, 0
    pct = (100 * (n - 10)) // n
    rank = math.ceil(pct * n / 100)
    return ordered[rank - 1], pct, n - rank


def end_to_end(results, wall, setup_times) -> tuple[dict, dict]:
    ok = [r for r in results if r["ok"]]
    latencies = [r["latency_s"] for r in (ok or results)]
    tail_value, tail_pct, beyond = tail(latencies)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "cells_per_s": sum(r["cells"] for r in ok) / wall,
        "setup_s": statistics.median(setup_times),
        "ok_frac": len(ok) / len(results),
        "peak_rss_mb": peak_kb / 1024,
    }
    details = {"latency_ops": len(latencies), "tail_percentile": tail_pct,
               "tail_ops_beyond": beyond, "fail_frac": 1 - len(ok) / len(results),
               "timed_wall_s": wall, "setup_samples_s": setup_times}
    return ({name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}, details)


def per_layer(reply, results, plain_results, import_times) -> tuple[dict, dict]:
    import tracing

    n = len(results)
    metrics = tracing.per_layer(reply["summary"], n)
    traced_s = sum(r["latency_s"] for r in results)
    plain_s = sum(r["latency_s"] for r in plain_results)
    metrics["cli.stdout_bytes"] = (sum(r["stdout_bytes"] for r in results) / n, "B/op")
    metrics["process.import_s"] = (statistics.median(import_times), "s")
    metrics["trace.overhead_s"] = ((traced_s - plain_s) / n, "s/op")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    details = {"traced_ops": n, "traced_s": traced_s, "untraced_s": plain_s}
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test mode: tiny sizes, one pass over the op list")
    parser.add_argument("--corrupt-first", action="store_true",
                        help="self-test mode: alter the first successful op's output "
                             "before checking")
    args = parser.parse_args(argv)
    loadavg = os.getloadavg()
    if not (SRC / "hankelshift" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'hankelshift'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ops, blocks = [], []
    for block in make_blocks(args.workload, args.seed, args.tiny):
        blocks.append(list(range(len(ops), len(ops) + len(block))))
        ops += block
    info = provenance(args.workload, args.seed, ops, loadavg)
    info.update(trace=args.trace, seconds=args.seconds, tiny=args.tiny)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT / f"{stem}.spans.jsonl"

    setup_probe()  # untimed: fills the bytecode cache a user's install would have
    probes = [setup_probe() for _ in range(SETUP_PROBES)]
    # A traced run measures the first block twice, untraced and traced.
    count = 1 if args.tiny or args.trace else None
    run = run_cold if args.workload == "cli-cold" else run_in_process
    reply = run(ops, blocks, args.seconds, count, bool(args.trace), spans_path)
    probes += [setup_probe() for _ in range(SETUP_PROBES)]

    results = check_records(ops, reply["records"], args.corrupt_first)
    if args.trace:
        plain_results = check_records(ops, reply["plain"], False)
        metrics, details = per_layer(reply, results, plain_results, [p[1] for p in probes])
        results = plain_results + results
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, details = end_to_end(results, reply["wall"], [p[0] for p in probes])
    failures = [r for r in results if not r["ok"]]
    # A printed value that contradicts the reference, or a failing claim,
    # makes the run incorrect; crashes and bad exit codes are failures that
    # print no value.
    wrong = [r for r in failures if r["wrong"]]
    info.update(details, failure_reasons=sorted({r["reason"] for r in failures}))
    record = {"provenance": info,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "ops": results}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print("# " + json.dumps(info))
    print(json.dumps({"correct": not wrong, "attempted": len(results), "failed": len(failures),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
