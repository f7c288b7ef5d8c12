"""Fleet scheduling benchmark: the 16-job, 4-node GA+refine gate.

A fleet exists to buy wall-clock parallelism: four trivial nodes at the
same 15 W node cap should cut the predicted makespan of a 16-job workload
well below what one APU manages.  This benchmark runs the full fleet
pipeline — LPT placement, per-node GA (population 64), per-node
refinement passes, fleet invariant verification, and an end-to-end
:func:`~repro.engine.fleetsim.run_fleet` execution — against the
identical GA+refine search on a single APU, and gates on the makespan
ratio.

The ``fleet_ga_refine`` entry lands in ``BENCH_results.json``; CI gates
on it via ``tools/check_bench.py --fleet-only`` (the ``make bench-fleet``
target): the recorded speedup must meet the floor, every job must have
been scheduled and executed, and the fleet invariant verifier must have
come back clean.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.analysis.invariants import verify_fleet_schedule
from repro.core.context import SchedulingContext
from repro.core.fleet import Fleet
from repro.core.genetic import GaConfig, genetic_schedule
from repro.core.refine import refine_schedule
from repro.engine import run_fleet
from repro.hardware.calibration import make_ivy_bridge
from repro.model.characterize import characterize_space
from repro.model.predictor import CoRunPredictor
from repro.model.profiler import profile_workload
from repro.workload.generator import random_workload

NODE_CAP_W = 15.0
N_JOBS = 16
N_NODES = 4
SEED = 1234
GA = GaConfig(population=64, generations=15)
#: Four parallel nodes lose some of their ideal 4x to packing imbalance;
#: anything under 2x means the fleet layer is serializing work.
MIN_MAKESPAN_SPEEDUP = 2.0


@dataclass(frozen=True)
class _Assignment:
    node: str
    jobs: tuple
    schedule: object


class _Plan:
    """Minimal duck-typed plan for :func:`run_fleet` (refined schedules)."""

    def __init__(self, assignments):
        self.assignments = tuple(assignments)


def _single_search(predictor, jobs):
    """GA + refinement on one APU; returns the refined makespan."""
    ctx = SchedulingContext(
        jobs=jobs, cap_w=NODE_CAP_W, predictor=predictor, seed=SEED
    )
    best, _ = genetic_schedule(ctx, config=GA)
    refined = refine_schedule(best, ctx)
    return ctx.metrics(refined).makespan_s


def _fleet_search(ctx):
    """Placed GA + per-node refinement; returns (plan, wall makespan)."""
    from repro.core.fleetsched import fleet_schedule

    plan = fleet_schedule(ctx, method="genetic", config=GA)
    refined = []
    makespans = []
    for a in plan.assignments:
        nctx = ctx.node_context(ctx.fleet.index(a.node), jobs=a.jobs)
        sched = refine_schedule(a.schedule, nctx)
        node = ctx.fleet.node(a.node)
        makespans.append(nctx.metrics(sched).makespan_s / node.speed_scale)
        refined.append(_Assignment(a.node, a.jobs, sched))
    return plan, _Plan(refined), max(makespans)


def test_fleet_ga_refine_speedup(benchmark, bench_record):
    processor = make_ivy_bridge()
    jobs = random_workload(N_JOBS, seed=SEED)
    predictor = CoRunPredictor(
        processor, profile_workload(processor, jobs),
        characterize_space(processor),
    )

    t0 = time.perf_counter()
    single_makespan = _single_search(predictor, jobs)
    single_s = time.perf_counter() - t0

    fleet = Fleet.uniform(N_NODES, budget_w=N_NODES * NODE_CAP_W)
    ctx = SchedulingContext(
        jobs=jobs, fleet=fleet, predictor=predictor, seed=SEED
    )
    t0 = time.perf_counter()
    ga_plan, refined_plan, fleet_makespan = benchmark.pedantic(
        lambda: _fleet_search(ctx), rounds=1, iterations=1, warmup_rounds=0
    )
    fleet_s = time.perf_counter() - t0

    violations = verify_fleet_schedule(ctx, ga_plan)
    scheduled = sum(len(a.jobs) for a in ga_plan.assignments)
    execution = run_fleet(ctx, refined_plan)
    completed = sum(len(e.result.completions) for e in execution.entries)

    speedup = single_makespan / fleet_makespan
    bench_record(
        name="fleet_ga_refine",
        n_jobs=N_JOBS,
        n_nodes=N_NODES,
        node_cap_w=NODE_CAP_W,
        population=GA.population,
        generations=GA.generations,
        single_makespan_s=single_makespan,
        fleet_makespan_s=fleet_makespan,
        makespan_speedup=speedup,
        sim_makespan_s=execution.makespan_s,
        sim_energy_j=execution.energy_j,
        scheduled=scheduled,
        completed=completed,
        fleet_violations=len(violations),
        single_wall_s=single_s,
        fleet_wall_s=fleet_s,
    )
    print(
        f"\n[fleet solvers] single={single_makespan:.1f}s "
        f"fleet={fleet_makespan:.1f}s speedup={speedup:.2f}x "
        f"(sim {execution.makespan_s:.1f}s, {completed}/{N_JOBS} jobs, "
        f"{len(violations)} violations)"
    )

    assert violations == []
    assert scheduled == N_JOBS
    assert completed == N_JOBS
    assert speedup >= MIN_MAKESPAN_SPEEDUP, (
        f"4-node fleet only {speedup:.2f}x faster than one APU "
        f"(need >= {MIN_MAKESPAN_SPEEDUP}x)"
    )
