"""Traced stand-in for ``python -m hankelshift.cli`` in the cli-cold workload.

Usage: ``coldboot.py TRACE_FILE OP_ID ARGV...``.  Installs the wrappers of
``tracing.py``, calls ``hankelshift.cli.main(ARGV)`` and exits with its
code, exactly as the module entry point would; an exception still ends the
process with a traceback.  The counters and spans go to TRACE_FILE.
"""

from __future__ import annotations

import json
import sys

import tracing
from hankelshift import cli


def main() -> int:
    path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = op_id
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        hits, misses = tracing.cache_totals()
        tracer.counters.update({"cache.hits": hits, "cache.misses": misses})
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(tracer.summary()) + "\n")
            tracer.write_spans(handle)


if __name__ == "__main__":
    raise SystemExit(main())
