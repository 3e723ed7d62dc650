"""Benchmark of heckerpf: four workloads, end-to-end and layer by layer.

    python3 perfbench/run.py --workload isp-enum --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1          # all four workloads in turn

Run from the repository root. Each workload runs in its own child process
(perfbench/worker.py) on src/ of this checkout. With --trace 0 it prints the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
Every metric is printed as `<workload>/<metric> <value> <unit>`, then a
`meta` line with what was measured, and as the last line one JSON object
with `correct`, `attempted`, `failed` and `metrics`. Results and traces go
to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

WORKLOADS = ("isp-enum", "rpf-verify", "rpf-ansatz", "cli-mix")
UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}
# set-up is timed this many times per workload (one of them the measured run)
SETUP_SAMPLES = 3
# a run must end within 180 s; leave room for the set-up samples and checks
WORKER_TIMEOUT = 150
HERE = os.path.dirname(os.path.abspath(__file__))


def git_sha():
    """HEAD of the checkout, read from .git without running git; 'unknown'
    when the checkout is not a git repository."""
    try:
        with open(".git/HEAD", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(f".git/{ref}"):
            with open(f".git/{ref}", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(".git/packed-refs", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(name, args, env, out_dir, setup_only=False):
    """Start one worker; return (seconds from start to 'ready', result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        rest = proc.stdout.read()
        rc = proc.wait(timeout=WORKER_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or rc != 0:
        raise RuntimeError(f"{name} worker exited with {rc} (set-up done: {ready.strip() == 'ready'})")
    return setup, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))


def run_workload(name, args, env, out_dir):
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(name, args, env, out_dir, setup_only=True)[0])
    setup, res = spawn(name, args, env, out_dir)
    setups.append(setup)
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {key: {"value": res[key], "unit": UNITS[key]} for key in ("ops_per_s", "op_p50_ms", "peak_rss_mb")}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return res, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all four in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20, help="length of each timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "heckerpf", "__init__.py")):
        print("run.py: no src/heckerpf here; run it from the root of a heckerpf checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"

    names = [args.workload] if args.workload else list(WORKLOADS)
    meta = {"git_sha": git_sha(), "python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    metrics, correct, attempted, failed = {}, True, 0, 0
    for name in names:
        res, wl_metrics = run_workload(name, args, env, out_dir)
        meta["backend"] = res["backend"]
        meta["workloads"][name] = {"attempted": res["attempted"], "failed": res["failed"]}
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and res["correct"]
        for problem in res["problems"]:
            print(f"{name}: check failed: {problem}", file=sys.stderr)
        for key, m in wl_metrics.items():
            print(f"{name}/{key} {m['value']:.6g} {m['unit']}")
        print(f"{name}/attempted {res['attempted']}")
        print(f"{name}/failed {res['failed']}")
        metrics.update({(key if args.workload else f"{name}/{key}"): m for key, m in wl_metrics.items()})
    print("meta " + json.dumps(meta, sort_keys=True))
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    tag = f"{args.workload or 'all'}-{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(summary, meta=meta), fh, indent=1, sort_keys=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
