#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json once untraced and once traced with
``--tiny`` (one small block, no time limit) and checks that each result
names every end-to-end or per-layer metric with its unit and a finite
value.  Then it reruns each workload with ``--corrupt-first``, which alters
one digit of the first successful op's output before the check, and
requires that op to be counted as failed and the run as incorrect.  Exits 1
and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, trace: int, *extra: str) -> dict:
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny",
                           *extra], capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} --trace {trace}: metrics differ from {section}: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, units "
                                f"{sorted(n for n in set(want) & set(got) if want[n] != got[n])}")
            if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
                problems.append(f"{workload} --trace {trace}: a metric is not finite")
            if trace == 0:
                clean = result
        corrupted = run(workload, 0, "--corrupt-first")
        if corrupted["failed"] != clean["failed"] + 1 or corrupted["correct"]:
            problems.append(f"{workload}: a corrupted output was not counted as a failure "
                            f"(failed {clean['failed']} -> {corrupted['failed']}, "
                            f"correct {corrupted['correct']})")
        ok_frac = corrupted["metrics"]["ok_frac"]["value"]
        if not math.isclose(ok_frac, 1 - corrupted["failed"] / corrupted["attempted"]):
            problems.append(f"{workload}: ok_frac {ok_frac} does not match failed/attempted")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
