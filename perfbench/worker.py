"""One workload in its own process: set-up, timed loop, checks.

run.py starts this file and counts set-up from the process start to the
"ready" line. The last line of standard output is one JSON object; anything
else goes to standard error. Run from the repository root with src on
PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from time import perf_counter

from spans import NullTracer, Tracer, layer_metrics
from workloads import WORKLOADS


def _backend():
    try:
        from heckerpf.backend import active_backend
    except ImportError:
        return "unknown"
    return active_backend()


def _run_rounds(wl, seconds, tracer, alternate=True):
    """Whole rounds, as many as end nearest to `seconds`: another round
    starts only while half of the last one still fits. With a tracer,
    traced rounds run layer probes after each operation. `alternate` runs
    even rounds untraced and odd ones traced, so both halves see the same
    mix and the tracing overhead can be read off; it asks for two rounds at
    least."""
    null = NullTracer()
    records = []
    start = perf_counter()
    r = 0
    while True:
        ops = wl.round(r)
        if not ops:
            break
        round_start = perf_counter()
        traced = tracer is not None and (r % 2 == 1 or not alternate)
        wl.tr = tracer if traced else null
        for op in ops:
            t0 = perf_counter()
            try:
                with wl.tr.span("op"):
                    result = wl.run(op)
            except Exception as exc:  # an operation failed: count it, keep going
                print(f"{wl.name}: {op!r} failed: {exc!r}", file=sys.stderr)
                traceback.print_exc()
                result = exc
            dt = perf_counter() - t0
            records.append((op, result, dt, traced))
            if traced and not isinstance(result, Exception):
                wl.probe(op, result, dt)
        r += 1
        now = perf_counter()
        if r >= (2 if tracer and alternate else 1) and now - start + (now - round_start) / 2 > seconds:
            break
    wl.tr = tracer or null
    return records, perf_counter() - start


def _overhead_pct(records):
    """Mean operation time of the traced rounds against the untraced ones."""
    mean = {}
    for traced in (False, True):
        dts = [dt for _, _, dt, t in records if t == traced]
        mean[traced] = sum(dts) / len(dts)
    return (mean[True] / mean[False] - 1) * 100


def _check(wl, records):
    problems = []
    for op, result, _, _ in records:
        if not isinstance(result, Exception):
            problems += wl.check(op, result)
    return problems + wl.finish_checks()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for envelopes and traces")
    ap.add_argument("--setup-only", action="store_true", help="exit once set-up is done")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    wl = WORKLOADS[args.workload](args.seed, tracer or NullTracer(), args.out)
    wl.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if tracer:
        tracer.workload = wl.name
    wl.prepare()
    records, elapsed = _run_rounds(wl, args.seconds, tracer)
    peak_kib = resource.getrusage(wl.rss_of).ru_maxrss
    runs = [(wl, records)]
    result = {"workload": wl.name, "backend": _backend()}
    if tracer:
        # one traced round of every other workload gives the layer metrics
        # whose home is there (see spans.TIMINGS)
        layers = {}
        for name, cls in WORKLOADS.items():
            if name != wl.name:
                other = cls(args.seed, tracer, args.out)
                tracer.workload = name
                other.warm_up()
                other.prepare()
                recs, _ = _run_rounds(other, 0, tracer, alternate=False)
                runs.append((other, recs))
                layers.update(other.extra_layers())
                for key, n in other.counts.items():
                    wl.count(key, n)
        layers.update(wl.extra_layers())
        layers["trace.overhead_pct"] = {"value": _overhead_pct(records), "unit": "%"}
        result["layers"] = layer_metrics(tracer, wl.counts, layers)
        tracer.write(f"{args.out}/trace-{wl.name}-{args.seed}.jsonl")
    else:
        result["ops_per_s"] = len(records) / elapsed
        result["op_p50_ms"] = statistics.median(dt for _, _, dt, _ in records) * 1e3
        result["peak_rss_mb"] = peak_kib / 1024
    problems = []
    attempted = failed = 0
    for w, recs in runs:
        attempted += len(recs)
        failed += sum(1 for _, res, _, _ in recs if isinstance(res, Exception))
        problems += _check(w, recs)
    result.update(attempted=attempted, failed=failed, correct=not problems, problems=problems[:20])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
