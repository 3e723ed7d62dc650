"""In-memory spans around the benchmark's own calls into heckerpf.

A span is (name, start, end, parent index, workload, calls). `calls` > 1
marks a batch of identical cheap calls timed as one span, so the clock
read does not dwarf a call of a few microseconds. Spans are kept in a list
and written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.workload = None
        self._stack = []

    @contextmanager
    def span(self, name, calls=1):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.workload, calls)

    def record(self, name, start, end):
        """A span timed elsewhere (another process on the same clock), as a
        child of the open span."""
        self.spans.append((name, start, end, self._stack[-1] if self._stack else None, self.workload, 1))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, workload, calls in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "workload": workload, "calls": calls}) + "\n")

    def self_times(self):
        """Span duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def per_call(self, name, workloads):
        """Per-call durations (seconds) of the named spans from these workloads."""
        return [(end - start) / calls for n, start, end, _, w, calls in self.spans
                if n == name and w in workloads]


class NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    @contextmanager
    def span(self, name, calls=1):
        yield


# metric name -> (span name, unit scale, workloads whose spans it reads).
# The workload named is the one whose end-to-end figures the layer should
# move; see README.md.
TIMINGS = {
    "field.ring_mul_us": ("field.ring_mul", 1e6, ("rpf-verify",)),
    "field.field_inverse_us": ("field.field_inverse", 1e6, ("rpf-verify",)),
    "field.ext_mul_us": ("field.ext_mul", 1e6, ("rpf-ansatz",)),
    "field.ext_inverse_us": ("field.ext_inverse", 1e6, ("rpf-ansatz",)),
    "field.sign_us": ("field.sign", 1e6, ("isp-enum",)),
    "field.decimal_ms": ("field.decimal", 1e3, ("cli-mix",)),
    "group.enumerate_words_ms": ("group.enumerate_words", 1e3, ("isp-enum",)),
    "group.word_to_matrix_us": ("group.word_to_matrix", 1e6, ("isp-enum",)),
    "cf.surd_of_cf_us": ("cf.surd_of_cf", 1e6, ("isp-enum",)),
    "cf.cf_expand_ms": ("cf.cf_expand", 1e3, ("cli-mix",)),
    "isp.isp_of_word_ms": ("isp.isp_of_word", 1e3, ("isp-enum",)),
    "rpf.verify_ms": ("rpf.verify", 1e3, ("rpf-verify",)),
    "rpf.evaluate_ms": ("rpf.evaluate", 1e3, ("rpf-verify",)),
    "rpf.residual_ms": ("rpf.residual", 1e3, ("rpf-verify", "rpf-ansatz")),
    "rpf.build_ms": ("rpf.build", 1e3, ("rpf-verify",)),
    "rpf.ansatz_ms": ("rpf.ansatz", 1e3, ("rpf-ansatz",)),
    "rpf.principal_part_ms": ("rpf.principal_part", 1e3, ("rpf-ansatz",)),
    "rpf.render_ms": ("rpf.render", 1e3, ("cli-mix",)),
    "cli.main_ms": ("cli.main", 1e3, ("cli-mix",)),
}


def _unit(metric):
    return metric.rsplit("_", 1)[1]


def layer_metrics(tracer, counts, extra):
    """Per-layer metrics from the spans: the median per call of every timing,
    the total self time of its spans, plus counts and derived figures."""
    own = tracer.self_times()
    out = {}
    for metric, (span, scale, workloads) in TIMINGS.items():
        samples = tracer.per_call(span, workloads)
        if not samples:
            raise RuntimeError(f"no {span} spans from {workloads}")
        out[metric] = {"value": statistics.median(samples) * scale, "unit": _unit(metric)}
        total = sum(own[i] for i, s in enumerate(tracer.spans) if s[0] == span and s[4] in workloads)
        out[metric.rsplit("_", 1)[0] + ".self_s"] = {"value": total, "unit": "s"}
    isp = tracer.per_call("isp.isp_of_word", ("isp-enum",))
    out["isp.isp_of_word_p90_ms"] = {"value": statistics.quantiles(isp, n=10)[-1] * 1e3, "unit": "ms"}
    for name, value in counts.items():
        out[name] = {"value": value, "unit": "count"}
    out.update(extra)
    return out
