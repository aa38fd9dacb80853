"""In-process closed loop for the verify-claims, table-int and det-poly workloads.

Reads a JSON job from stdin: ``{"ops": [argv, ...], "blocks": [[op index,
...], ...], "seconds": s, "count": blocks or null, "trace": bool,
"spans": path}``.  Calls ``hankelshift.cli.main`` once per op, one op at a
time, capturing what the CLI prints, and writes one JSON reply to stdout.
With ``trace`` it first runs the ops untraced and then replays them with
the wrappers of ``tracing.py`` installed, so both passes see the same
inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from time import perf_counter

from hankelshift import cli

from workloads import closed_loop


def run_op(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # an op that raises is a failed op, not a failed run
        code = None
        err.write(traceback.format_exc())
    return [perf_counter() - start, code, out.getvalue(), err.getvalue()]


def main() -> None:
    job = json.load(sys.stdin)
    ops = job["ops"]

    def step(i):
        return [i, *run_op(ops[i])]

    reply = {}
    if job["trace"]:
        import tracing

        tracing.clear_term_caches()
        plain, _ = closed_loop(step, job["blocks"], job["seconds"], job["count"])
        tracer = tracing.Tracer()
        tracer.install()
        tracing.clear_term_caches()

        def traced_step(i):
            tracer.op += 1
            return step(i)

        tracer.op = -1
        records, wall = closed_loop(traced_step, [[r[0] for r in plain]], count=1)
        hits, misses = tracing.cache_totals()
        tracer.counters.update({"cache.hits": hits, "cache.misses": misses})
        with open(job["spans"], "w", encoding="utf-8") as handle:
            tracer.write_spans(handle)
        reply.update(plain=plain, summary=tracer.summary())
    else:
        records, wall = closed_loop(step, job["blocks"], job["seconds"], job["count"])
    reply.update(records=records, wall=wall)
    json.dump(reply, sys.stdout)


if __name__ == "__main__":
    main()
