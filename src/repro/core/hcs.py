"""HCS / HCS+ facade: the complete heuristic co-scheduling algorithm.

Wires the three steps together (Sections IV-A.1/2) and optionally the post
refinement (IV-A.3):

1. :func:`repro.core.partition.partition_jobs` — S_co vs S_seq via the
   Co-Run Theorem over cap-feasible settings;
2. :func:`repro.core.categorize.categorize_jobs` — preference sets with
   threshold D;
3. :func:`repro.core.greedy.greedy_schedule` — greedy minimum-interference
   pairing; S_seq jobs are appended as a solo tail, each on its best
   cap-feasible processor.

On a tensor-backed context the three steps read the model's reductions
(:meth:`~repro.perf.tensor.TensorModel.theorem_pairs` for Step 1, and the
cap masks' best-solo times and the governor's
:class:`~repro.perf.tensor.PairTables` through one Step 3 source for
Step 2, Step 3 and the solo tail) instead of querying the predictor per
job, pair and setting; the scalar predictor stays the referee, and both
paths give the same schedule bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.categorize import DEFAULT_THRESHOLD, Categorized, categorize_jobs
from repro.core.context import SchedulingContext
from repro.core.feasibility import best_solo_kind, context_cap, repair_schedule
from repro.core.greedy import greedy_schedule, pairing_source
from repro.core.partition import Partition, partition_jobs
from repro.core.refine import refine_schedule
from repro.core.schedule import CoSchedule


@dataclass(frozen=True)
class HcsResult:
    """The heuristic's output plus its intermediate artifacts."""

    schedule: CoSchedule
    partition: Partition
    categorized: Categorized
    governor: object
    predicted_makespan_s: float
    scheduling_time_s: float


def hcs_schedule(
    ctx: SchedulingContext,
    *,
    refine: bool = False,
    threshold: float = DEFAULT_THRESHOLD,
    vectorized: bool = True,
) -> HcsResult:
    """Compute an HCS (or, with ``refine=True``, HCS+) co-schedule.

    The context supplies jobs, cap, governor, evaluator, objective, and
    seed in one bundle.  Under an energy/EDP context the greedy pairing
    and the refinement passes rank candidates by the context governor's
    objective cost.  ``vectorized`` is forwarded to
    :func:`~repro.core.refine.refine_schedule`: on a tensor-backed context
    the refinement runs as vectorized full-neighborhood descent by
    default; ``False`` pins the scalar sampling passes.
    """
    t0 = time.perf_counter()
    predictor, governor = ctx.predictor, ctx.governor

    cap = context_cap(ctx)
    source = pairing_source(ctx, governor)
    part = partition_jobs(predictor, ctx.jobs, cap, tensor=ctx.tensor)
    cat = categorize_jobs(
        predictor, part.co, cap, threshold=threshold, best_time=source.best_time
    )
    cpu_order, gpu_order = greedy_schedule(source, cat)
    solo = tuple((job, best_solo_kind(source.best_time, job)) for job in part.seq)
    schedule = CoSchedule(
        cpu_queue=tuple(cpu_order), gpu_queue=tuple(gpu_order), solo_tail=solo
    )
    # Greedy never pairs an infeasible cell, but it may idle a processor
    # the two-queue replay keeps busy; repair what that leaves infeasible.
    schedule = repair_schedule(ctx, schedule)
    if refine:
        schedule = refine_schedule(schedule, ctx, vectorized=vectorized)
    elapsed = time.perf_counter() - t0

    return HcsResult(
        schedule=schedule,
        partition=part,
        categorized=cat,
        governor=governor,
        predicted_makespan_s=ctx.predicted_makespan(schedule),
        scheduling_time_s=elapsed,
    )
