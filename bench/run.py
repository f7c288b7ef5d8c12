"""``python -m bench run``: measure workloads and print every metric.

Each run of a workload is a fresh child interpreter (``bench.child``) with
fixed settings: one BLAS/OpenMP thread, a fixed hash seed, the serial
executor, and ``REPRO_SANITIZE``/``REPRO_CACHE_DIR`` removed.  Two more
children stop after set-up, so ``setup_s`` is the median of three set-ups.
Children run one after another, so the load is one process at a time.

The last line of standard output is one JSON object: for a single run,
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) of
``BENCHMARK.json``; for several runs, ``"runs"`` lists each run's metrics
instead of ``"metrics"``.  The exit code is 0 only when every output
checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from bench import spec as specs

SETUP_SAMPLES = 3
#: Wall-clock limits per child, well inside the three-minute run budget.
SETUP_TIMEOUT_S = 30
MEASURE_GRACE_S = 60


class ChildError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in ("REPRO_SANITIZE", "REPRO_CACHE_DIR"):
        env.pop(name, None)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    paths = [str(specs.ROOT / "src"), str(specs.ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _child(argv: list[str], timeout: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bench.child", *argv],
            cwd=specs.ROOT,
            env=_child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"child {argv} ran past {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child {argv} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_once(args, workload: str, seed: int, run_seconds: float) -> dict:
    """One run: extra set-up samples, then the measured child."""
    common = ["--workload", workload, "--seed", str(seed)]
    if args.smoke:
        common.append("--smoke")
    setups = [
        _child(common + ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"]
        for _ in range(SETUP_SAMPLES - 1 if not args.smoke else 0)
    ]
    measured = common + ["--trace", str(args.trace)]
    if args.trace_out:
        measured += ["--trace-out", args.trace_out]
    result = _child(measured, run_seconds + MEASURE_GRACE_S)
    setups.append(result["setup_s"])
    result["setup_samples"] = setups
    result["end_to_end"]["setup_s"] = statistics.median(setups)
    return result


def reported(result: dict, spec: dict) -> dict:
    """The metrics the run reports, keyed and united as in the spec.

    Per-layer figures a workload does not exercise (a service counter on
    ``sim-trace``, say) read 0.
    """
    if result["trace"]:
        values = result["per_layer"]
        return {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    values = result["end_to_end"]
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["end_to_end"]
    }


def _print_run(result: dict, metrics: dict) -> None:
    print(
        f"== {result['workload']} seed={result['seed']} "
        f"trace={int(result['trace'])}: {result['attempted']} ops attempted, "
        f"{result['failed']} failed, {result['passes']:.2f} passes, "
        f"{result['samples']} latency samples"
    )
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if not result["trace"]:
        print(f"  setup samples (s): {result['setup_samples']}")
        for name, value in sorted(result["diagnostics"].items()):
            print(f"  [diagnostic] {name} = {value:.6g}")


def main(argv: list[str]) -> int:
    if not (specs.ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"bench: no repro sources under {specs.ROOT / 'src'}; run from a "
            "full checkout",
            file=sys.stderr,
        )
        return 2
    spec = specs.load()
    names = specs.workload_names(spec)
    parser = argparse.ArgumentParser(prog="python -m bench run")
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    run_seconds = spec["run_seconds"]
    parser.add_argument(
        "--seconds", type=float, default=run_seconds,
        help=f"accepted only as run_seconds of BENCHMARK.json ({run_seconds}): "
        "every run measures the same length",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or the bare flag): report per-layer metrics from a traced run",
    )
    parser.add_argument(
        "--runs", type=int, default=1,
        help="runs per workload, on seeds seed, seed+1, ...",
    )
    parser.add_argument("--out", help="write every run's full record as JSON")
    parser.add_argument(
        "--trace-out", help="write the traced spans as Chrome trace-event JSON"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs, one set-up sample and no measuring time beyond the "
        "first pass of each kind, for the self-test only",
    )
    args = parser.parse_args(argv)
    if args.seconds != run_seconds:
        parser.error(f"--seconds must be run_seconds of BENCHMARK.json ({run_seconds})")
    workloads = names if args.workload == "all" else [args.workload]

    runs = []
    for r in range(args.runs):
        for workload in workloads:
            try:
                result = run_once(args, workload, args.seed + r, run_seconds)
            except ChildError as exc:
                print(f"bench: {workload}: {exc}", file=sys.stderr)
                return 1
            result["metrics"] = reported(result, spec)
            _print_run(result, result["metrics"])
            runs.append(result)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"runs": runs}, fh, indent=1)
    failed = sum(r["failed"] for r in runs)
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
    }
    if len(runs) == 1:
        summary["metrics"] = runs[0]["metrics"]
    else:
        summary["runs"] = [
            {"workload": r["workload"], "seed": r["seed"], "metrics": r["metrics"]}
            for r in runs
        ]
    print(json.dumps(summary))
    return 0 if failed == 0 else 1
