#!/usr/bin/env python3
"""capgraph benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload fa-pipeline-1k --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from `src/`. The
load is a closed loop in this one process: one pass at a time, BLAS limited
to as many threads as the process may use. A run sets up its inputs seven
times (`setup_s` is the median), then repeats whole rounds of the
workload's fixed operations until `--seconds` have passed, reads the peak
resident memory, and only then runs the correctness checks, so their
reference arrays do not count towards it.

With `--trace 1` the run sets up once and makes one untraced and one traced
round instead; it prints the per-layer metrics derived from the traced
spans, plus `trace.overhead_s`, the traced round's `pipeline_s` minus the
untraced one's. The spans go to `perfbench/results/trace-<workload>-seed<n>.json`.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
# The keys of workloads.WORKLOADS, named here because that module loads numpy,
# which must wait until the BLAS thread count is set.
WORKLOAD_NAMES = ("fa-pipeline-1k", "gnn-cli-4k", "link-4k")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_untraced(make_workload, seconds: float) -> tuple[object, dict, list]:
    setup = []
    for _ in range(SETUP_REPEATS):
        workload = None  # each set-up starts from a collected heap without the last one's graph
        gc.collect()
        workload = make_workload()
        start = time.perf_counter()
        workload.setup()
        setup.append(time.perf_counter() - start)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        gc.collect()  # every round starts from a collected heap
        rounds.append(workload.run_round())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    done = [r for r in rounds if r.outputs]
    if not done:
        raise RuntimeError("no round completed")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pipeline_s": (statistics.median(r.pipeline_s for r in done), "s"),
        "predict_ms": (statistics.median(ms for r in done for ms in r.predict_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "auc_roc": (statistics.median(r.auc_roc for r in done), "1"),
        "auc_pr": (statistics.median(r.auc_pr for r in done), "1"),
    }
    return workload, metrics, rounds


def run_traced(make_workload, trace_file: Path) -> tuple[object, dict, list]:
    from tracing import Tracer, layer_metrics

    workload = make_workload()
    tracer = Tracer()
    untraced_span = workload.span
    with tracer.installed():
        workload.span = tracer.span
        workload.setup()
    workload.span = untraced_span
    gc.collect()
    base = workload.run_round()
    gc.collect()
    with tracer.installed():
        workload.span = tracer.span
        traced = workload.run_round()
    workload.span = untraced_span
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = (traced.pipeline_s - base.pipeline_s, "s")
    tracer.write(trace_file, {
        "workload": workload.name, "seed": workload.seed,
        "untraced_pipeline_s": base.pipeline_s, "traced_pipeline_s": traced.pipeline_s,
        "metrics": {name: value for name, (value, _) in metrics.items()},
    })
    return workload, metrics, [base, traced]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "capgraph" / "__init__.py").is_file():
        print(f"error: no capgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count())
    for var in BLAS_THREAD_VARS:  # read by numpy's BLAS when it loads
        os.environ[var] = threads
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import FULL, WORKLOADS

    work_dir = HERE / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        def make_workload():
            return WORKLOADS[args.workload](args.seed, FULL, work_dir)

        if args.trace:
            trace_file = HERE / "results" / f"trace-{args.workload}-seed{args.seed}.json"
            workload, metrics, rounds = run_traced(make_workload, trace_file)
        else:
            workload, metrics, rounds = run_untraced(make_workload, args.seconds)
        problems = workload.check(rounds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
