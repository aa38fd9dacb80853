"""Spans and counters recorded around calls into the package's layers.

The wrappers replace the module and class attributes that callers look up
(``hankel.det_condensation``, ``Poly.__mul__`` and so on), so nothing in
``src/`` changes.  A span is (id, name, op id, parent id, start, end); the
ring and term layers run millions of times per op, so for them only the
per-name totals are kept, not one record per call.  Self time is a call's
duration minus the time covered by the wrapped calls made inside it.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

from hankelshift import cli, closed_forms, hankel, ring, sequences, verify

# lru-cached term generators whose cache_info() gives sequences.cache.hit_ratio.
TERM_CACHES = (sequences.catalan_number, sequences.narayana_polynomial,
               sequences.narayana_b_polynomial, sequences.m_number,
               sequences.catalan_convolution)

# Names whose calls are summed but not kept as individual spans.
AGGREGATE_ONLY = ("ring.mul", "ring.exact_div", "ring.addsub", "sequences.term")

TIMED_LAYERS = (
    "hankel.condensation", "hankel.bareiss_int", "hankel.bareiss_poly",
    "hankel.cofactor", "hankel.build", "hankel.det",
    "ring.mul", "ring.exact_div", "ring.addsub", "sequences.term",
    "closed_forms.predict_backward", "closed_forms.narayana_recursive",
    "closed_forms.forward_catalan_det", "verify.claim", "verify.report", "cli.main",
)
ENGINES = (hankel.CONDENSATION, hankel.BAREISS, hankel.COFACTOR)


def cache_totals() -> tuple[int, int]:
    infos = [f.cache_info() for f in TERM_CACHES]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def clear_term_caches() -> None:
    for f in TERM_CACHES:
        f.cache_clear()


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []
        self.op = None
        self._stack: list[list] = []  # [child seconds, id of nearest kept span]
        self._next_id = 0

    def wrap(self, fn, name, on_exit=None):
        """``fn`` timed under ``name``; ``on_exit(args, result, seconds)`` may
        return a different name to book the call under."""
        stack, calls, self_s, spans = self._stack, self.calls, self.self_s, self.spans
        keep = name not in AGGREGATE_ONLY

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if keep:
                self._next_id += 1
                span_id = self._next_id
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                seconds = end - start
                if stack:
                    stack[-1][0] += seconds
            booked = (on_exit(args, result, seconds) or name) if on_exit else name
            calls[booked] += 1
            self_s[booked] += seconds - frame[0]
            if keep:
                spans.append((span_id, booked, self.op, parent, start, end))
            return result

        return traced

    def install(self) -> None:
        counters = self.counters
        poly = ring.Poly

        def mul(a, b):
            lb = len(b.coeffs) if isinstance(b, poly) else 1
            counters["ring.mul.coeff_products"] += len(a.coeffs) * lb
            if len(a.coeffs) <= 1 and lb <= 1:
                counters["ring.mul.const_calls"] += 1
            return orig_mul(a, b)

        orig_mul = poly.__mul__
        poly.__mul__ = poly.__rmul__ = self.wrap(mul, "ring.mul")
        poly.exact_div = self.wrap(poly.exact_div, "ring.exact_div")
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"):
            setattr(poly, attr, self.wrap(getattr(poly, attr), "ring.addsub"))
        sequences.SequenceFamily.term = self.wrap(sequences.SequenceFamily.term, "sequences.term")

        def condensation_exit(args, result, seconds):
            if result is None:
                counters["hankel.condensation.blocked"] += 1
                counters["hankel.condensation.wasted_s"] += seconds

        def bareiss_exit(args, result, seconds):
            return "hankel.bareiss_int" if args[0].all_constant else "hankel.bareiss_poly"

        def det_exit(args, result, seconds):
            counters[f"hankel.det.engine.{result.engine}"] += 1

        hankel.det_condensation = self.wrap(hankel.det_condensation, "hankel.condensation",
                                            condensation_exit)
        hankel.det_bareiss = self.wrap(hankel.det_bareiss, "hankel.bareiss", bareiss_exit)
        hankel.det_cofactor = self.wrap(hankel.det_cofactor, "hankel.cofactor")
        hankel.build = self.wrap(hankel.build, "hankel.build")
        hankel.det = self.wrap(hankel.det, "hankel.det", det_exit)
        closed_forms.predict_backward = self.wrap(closed_forms.predict_backward,
                                                  "closed_forms.predict_backward")
        closed_forms.narayana_forward_det_recursive = self.wrap(
            closed_forms.narayana_forward_det_recursive, "closed_forms.narayana_recursive")
        closed_forms.forward_catalan_det = self.wrap(closed_forms.forward_catalan_det,
                                                     "closed_forms.forward_catalan_det")
        verify.verify_claim = self.wrap(verify.verify_claim, "verify.claim")
        verify.Report.render_text = self.wrap(verify.Report.render_text, "verify.report")
        verify.Report.to_json = self.wrap(verify.Report.to_json, "verify.report")
        cli._report_csv = self.wrap(cli._report_csv, "verify.report")
        cli.main = self.wrap(cli.main, "cli.main")

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters)}

    def write_spans(self, handle) -> None:
        for span_id, name, op, parent, start, end in self.spans:
            handle.write(json.dumps({"id": span_id, "name": name, "op": op,
                                     "parent": parent, "start": start, "end": end}) + "\n")


def merge(summaries: list[dict]) -> dict:
    total = {"calls": Counter(), "self_s": Counter(), "counters": Counter()}
    for s in summaries:
        for part in total:
            total[part].update(s[part])
    return total


def per_layer(summary: dict, ops: int) -> dict:
    """Per-layer metrics, per traced op where they are counts or times."""
    calls, self_s, counters = summary["calls"], summary["self_s"], summary["counters"]
    out = {}
    for name in TIMED_LAYERS:
        out[f"{name}.calls"] = (calls.get(name, 0) / ops, "count/op")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0) / ops, "s/op")
    per_op_counters = [("hankel.condensation.blocked", "count/op"),
                       ("hankel.condensation.wasted_s", "s/op"),
                       *((f"hankel.det.engine.{engine}", "count/op") for engine in ENGINES),
                       ("ring.mul.coeff_products", "count/op")]
    for name, unit in per_op_counters:
        out[name] = (counters.get(name, 0) / ops, unit)
    mul_calls = calls.get("ring.mul", 0)
    out["ring.mul.const_share"] = (counters.get("ring.mul.const_calls", 0) / mul_calls
                                   if mul_calls else 0.0, "ratio")
    lookups = counters.get("cache.hits", 0) + counters.get("cache.misses", 0)
    out["sequences.cache.hit_ratio"] = (counters.get("cache.hits", 0) / lookups
                                        if lookups else 0.0, "ratio")
    return out
