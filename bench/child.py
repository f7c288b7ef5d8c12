"""One measured benchmark process: set up, run passes, report one JSON line.

``bench.run`` starts this module in a fresh interpreter for every run, so
set-up time covers the imports and peak RSS covers one workload.  With
``--setup-only`` it stops after set-up and the warm-up op, which is how
the runner samples set-up time more than once per run.  It measures for
``run_seconds`` of ``BENCHMARK.json`` (no time at all with ``--smoke``).
"""

import argparse
import importlib
import json
import resource
import shutil
import tempfile
from pathlib import Path
from time import perf_counter

from bench import spec as specs
from bench.reference import Speedometer
from bench.stats import P99_MIN_SAMPLES, percentile
from bench.trace import Tracer
from bench.workloads import Recorder

#: Set-up time runs from here: only the standard library and the
#: benchmark's own light modules are loaded before it.
_T0 = perf_counter()

WORKLOADS = {
    "paper-batch": "bench.workloads.paper_batch:PaperBatch",
    "search-large": "bench.workloads.search_large:SearchLarge",
    "sim-trace": "bench.workloads.sim_trace:SimTrace",
    "service-mixed": "bench.workloads.service_mixed:ServiceMixed",
}
#: Kernel timings behind the speed factor of a set-up-only run.
SETUP_KERNEL_SAMPLES = 5
WORK_DIR = Path(__file__).resolve().parents[1] / ".bench_work"


def measure(args, workdir: str) -> dict:
    module, cls = WORKLOADS[args.workload].split(":")
    workload = getattr(importlib.import_module(module), cls)(
        args.seed, args.smoke, workdir
    )
    units = workload.units()
    workload.warmup()
    raw_setup_s = perf_counter() - _T0
    speed = Speedometer()
    if args.setup_only:
        for _ in range(SETUP_KERNEL_SAMPLES):
            speed.sample()
        return {"setup_s": raw_setup_s * speed.factor}

    tracer = Tracer() if args.trace else None
    plain, traced = Recorder(speed), Recorder(speed, tracer)
    # Passes alternate traced/untraced in a traced run (first pass traced),
    # so both see the same work and the same machine state.  The run stops
    # only at a pass boundary, so every commit measures the same mix.
    n = len(units)
    minimum = n * (2 if tracer is not None else 1)
    seconds = 0.0 if args.smoke else specs.load()["run_seconds"]
    deadline = perf_counter() + seconds
    done = 0
    while done < minimum or done % n or perf_counter() < deadline:
        unit = units[done % n]
        if tracer is not None and (done // n) % 2 == 0:
            workload.tracer = tracer
            with tracer.traced():
                unit(traced)
            workload.tracer = None
        else:
            unit(plain)
        done += 1
        if done == n:
            # Set-up plus one pass: later passes add allocator history,
            # not workload, so they would make the peak depend on run length.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    raw_ops_per_s = plain.ops / plain.busy_s
    diagnostics = {
        "reference_ms": speed.reference_ms,
        "raw.setup_s": raw_setup_s,
        "raw.ops_per_s": raw_ops_per_s,
        "raw.latency_p50_ms": percentile(plain.samples_ms, 0.50),
    }
    plain.rescale(speed.factor)
    end_to_end = {
        "setup_s": raw_setup_s * speed.factor,
        "ops_per_s": plain.ops / plain.busy_s,
        "latency_p50_ms": percentile(plain.samples_ms, 0.50),
        "peak_rss_mb": peak_rss_mb,
    }
    diagnostics.update(workload.diagnostics(plain))
    if len(plain.samples_ms) >= P99_MIN_SAMPLES:
        diagnostics["latency_p99_ms"] = percentile(plain.samples_ms, 0.99)
    per_layer = None
    if tracer is not None:
        per_layer = tracer.metrics()
        traced_ops_per_s = traced.ops / traced.busy_s
        per_layer["trace.overhead_pct"] = (
            100.0 * (raw_ops_per_s - traced_ops_per_s) / raw_ops_per_s
        )
        per_layer.update(diagnostics)
        if args.trace_out:
            tracer.write_chrome(args.trace_out)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(tracer),
        "setup_s": end_to_end["setup_s"],
        "attempted": workload.attempted,
        "failed": workload.failed,
        "passes": done / n,
        "samples": len(plain.samples_ms),
        "end_to_end": end_to_end,
        "diagnostics": diagnostics,
        "per_layer": per_layer,
    }


def main() -> None:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir)
        if not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
