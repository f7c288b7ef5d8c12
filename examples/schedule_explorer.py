#!/usr/bin/env python
"""Scenario: choosing a scheduler — greedy, evolutionary, or exhaustive?

Runs every scheduler in the library on the same 6-job workload and shows
what each buys: measured makespan, scheduling cost, and a Gantt chart of
the best schedule found.  The library's A* and GA schedulers extend the
search-based approaches the paper's related work discusses (Tian et al.,
Phan et al.) to the heterogeneous power-capped setting.

Run:  python examples/schedule_explorer.py [--jobs 6] [--seed 3]
"""

import argparse
import time

from repro import CoScheduleRuntime, random_workload
from repro.core.astar import astar_schedule
from repro.core.genetic import GaConfig, genetic_schedule
from repro.util.gantt import render_gantt
from repro.util.tables import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=6)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--cap", type=float, default=15.0)
    args = parser.parse_args()

    jobs = random_workload(args.jobs, seed=args.seed)
    runtime = CoScheduleRuntime(jobs, cap_w=args.cap)

    rows = []
    best = None

    # 1. Greedy HCS / HCS+ (the paper's algorithms).
    for refine, label in ((False, "HCS (greedy)"), (True, "HCS+ (refined)")):
        outcome = runtime.run_hcs(refine=refine)
        rows.append((label, outcome.makespan_s, outcome.scheduling_time_s * 1e3))
        if best is None or outcome.makespan_s < best[1]:
            best = (label, outcome.makespan_s, outcome.execution)

    # 2. Genetic algorithm, seeded with HCS (memetic refinement).
    t0 = time.perf_counter()
    hcs = runtime.run_hcs()
    ga_schedule, _ = genetic_schedule(
        runtime.context(seed=0),
        config=GaConfig(population=30, generations=25),
        seed_schedule=hcs.schedule,
    )
    ga_exec = runtime.execute(ga_schedule)
    rows.append(("genetic algorithm", ga_exec.makespan_s,
                 (time.perf_counter() - t0) * 1e3))
    if ga_exec.makespan_s < best[1]:
        best = ("genetic algorithm", ga_exec.makespan_s, ga_exec)

    # 3. A* search (near-exhaustive under the predicted model).
    t0 = time.perf_counter()
    schedule, _, expanded = astar_schedule(runtime.context(), node_budget=80_000)
    astar_exec = runtime.execute(schedule)
    rows.append((f"A* ({expanded} nodes)", astar_exec.makespan_s,
                 (time.perf_counter() - t0) * 1e3))
    if astar_exec.makespan_s < best[1]:
        best = (f"A*", astar_exec.makespan_s, astar_exec)

    bound = runtime.lower_bound_s()
    rows.append(("lower bound", bound, 0.0))

    print(format_table(
        ["scheduler", "measured makespan (s)", "scheduling (ms)"],
        rows, ndigits=2,
    ))
    print(f"\nbest schedule ({best[0]}, {best[1]:.1f}s):\n")
    print(render_gantt(best[2].completions, makespan_s=best[2].makespan_s))


if __name__ == "__main__":
    main()
