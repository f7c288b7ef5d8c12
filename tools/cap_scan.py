#!/usr/bin/env python
"""Low-cap scan: which registry methods raise, and how good their plans are.

Run from the repo root (prints the Markdown table RESULTS.md records)::

    PYTHONPATH=src python tools/cap_scan.py

Draws ``random_workload(n, default_rng(s))`` for n = 8 and 16 and seeds
s = 1-8 (16 instances), and schedules each at caps of 6, 7, 8, 9 and 10 W
with every registry method except the exponential ``astar`` and
``brute``, all at method seed 0.  Per method and cap a cell shows how
many instances raised :class:`~repro.errors.InfeasibleCapError`, then the
median and worst ratio of the method's predicted makespan to the better
of the two one-device plans (every job queued on the CPU, or every job on
the GPU), over the instances it scheduled where one of those plans fits
the cap.  An instance *strands* a job
when that job has no cap-feasible solo level on either device; only such
instances may raise.
"""

import statistics

from repro.core.api import scheduler_names, schedule
from repro.core.context import SchedulingContext, build_predictor
from repro.core.feasibility import require_cap_feasible
from repro.core.schedule import CoSchedule
from repro.errors import InfeasibleCapError
from repro.perf.cache import EvalCache
from repro.util.rng import default_rng
from repro.workload.generator import random_workload

CAPS_W = (6.0, 7.0, 8.0, 9.0, 10.0)
SIZES = (8, 16)
SEEDS = range(1, 9)
METHODS = tuple(m for m in scheduler_names() if m not in ("astar", "brute"))


def _strands_a_job(ctx) -> bool:
    """Does some job have no cap-feasible solo level on either device?"""
    try:
        require_cap_feasible(ctx)
    except InfeasibleCapError:
        return True
    return False


def _one_device(ctx) -> float:
    """Predicted makespan of the better one-device plan (``inf`` if neither
    fits the cap)."""
    jobs = ctx.jobs
    return min(
        ctx.predicted_makespan(CoSchedule(cpu_queue=jobs)),
        ctx.predicted_makespan(CoSchedule(gpu_queue=jobs)),
    )


def _cell(raised: int, ratios: list[float]) -> str:
    if not ratios:
        return f"{raised} raised"
    return (
        f"{raised} raised, x{statistics.median(ratios):.3f} "
        f"(max x{max(ratios):.3f})"
    )


def main() -> int:
    instances = []
    for n in SIZES:
        for s in SEEDS:
            jobs = random_workload(n, default_rng(s))
            instances.append((jobs, build_predictor(jobs, cache=EvalCache())))
    raised = {(m, cap): 0 for m in METHODS for cap in CAPS_W}
    ratios = {(m, cap): [] for m in METHODS for cap in CAPS_W}
    stranded = dict.fromkeys(CAPS_W, 0)
    for cap in CAPS_W:
        for jobs, predictor in instances:
            ctx = SchedulingContext.build(jobs, cap_w=cap, predictor=predictor)
            stranded[cap] += _strands_a_job(ctx)
            base = _one_device(ctx)
            for method in METHODS:
                try:
                    result = schedule(
                        jobs, method, cap_w=cap, predictor=predictor, seed=0
                    )
                except InfeasibleCapError:
                    raised[method, cap] += 1
                    continue
                if base < float("inf"):
                    ratios[method, cap].append(result.predicted_makespan_s / base)

    print(f"{len(instances)} instances: random_workload(n, default_rng(s)), "
          f"n in {SIZES}, s = {SEEDS.start}-{SEEDS.stop - 1}; method seed 0")
    print()
    print("| method | " + " | ".join(f"{cap:g} W" for cap in CAPS_W) + " |")
    print("|---|" + "---|" * len(CAPS_W))
    print(
        "| instances stranding a job | "
        + " | ".join(str(stranded[cap]) for cap in CAPS_W)
        + " |"
    )
    for method in METHODS:
        cells = [_cell(raised[method, cap], ratios[method, cap]) for cap in CAPS_W]
        print(f"| {method} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
