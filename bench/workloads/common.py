"""Serving and checking a schedule, shared by the scheduling workloads."""

from __future__ import annotations

import math

from repro.analysis.invariants import verify_execution, verify_schedule
from repro.engine.sim import Scenario, run


def simulate(processor, result):
    """Execute a ``schedule()`` result on the simulator, under its governor."""
    return run(
        processor, Scenario.from_schedule(result.schedule), governor=result.governor
    )


def served_problems(ctx, result, execution) -> list[str]:
    """Everything wrong with a served schedule and its simulated execution.

    ``ctx`` is a fresh context for the request's jobs, cap and objective.
    """
    problems = [str(v) for v in verify_schedule(ctx, result.schedule)]
    problems += [str(v) for v in verify_execution(execution)]
    if not math.isclose(
        ctx.predicted_makespan(result.schedule),
        result.predicted_makespan_s,
        rel_tol=1e-9,
    ):
        problems.append("reported makespan differs from the model's")
    if len(execution.completions) != len(ctx.jobs):
        problems.append("not every job completed")
    return problems
