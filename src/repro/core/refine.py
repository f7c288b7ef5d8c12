"""HCS+ post local refinement (Section IV-A.3).

Three low-cost passes over the heuristic's output, each keeping a candidate
swap only when the *predicted* makespan improves:

1. adjacent swaps along each processor's queue (one linear pass per queue);
2. random swaps of two jobs within one queue;
3. random swaps of two jobs across the two queues.

All passes are linear in the number of jobs or in the number of random
samples, preserving the paper's "almost no time to run" property
(Section VI-D).  Candidate makespans are evaluated through a memoized
:class:`~repro.perf.evaluator.ScheduleEvaluator`: the random passes revisit
candidates, and the context's evaluator shares its cache with whatever
search produced the input schedule.

Driven through a non-makespan :class:`~repro.core.context.SchedulingContext`
the identical passes minimize the context's objective (energy or EDP)
instead — the evaluator is the only place a score is ever computed.
"""

from __future__ import annotations

import numpy as np

from repro.core.context import SchedulingContext
from repro.core.schedule import CoSchedule
from repro.perf.evaluator import ScheduleEvaluator

#: Random-sample count per stochastic pass, as a multiple of the job count.
SAMPLES_PER_JOB = 2

#: Minimum relative predicted improvement for accepting a swap.  The model
#: carries ~15% error (Figure 7); chasing sub-percent predicted gains just
#: reshuffles the schedule inside the noise floor.  The deterministic
#: adjacent pass demands stronger evidence than the random passes: adjacent
#: swaps perturb the pairing pattern only locally, so their small predicted
#: gains are disproportionately model noise.
ADJACENT_MIN_GAIN = 0.01
RANDOM_MIN_GAIN = 0.002


def _adjacent_pass(
    schedule: CoSchedule, evaluate: ScheduleEvaluator, best_makespan: float
) -> tuple[CoSchedule, float]:
    for side in ("cpu", "gpu"):
        queue = list(schedule.cpu_queue if side == "cpu" else schedule.gpu_queue)
        for i in range(len(queue) - 1):
            queue[i], queue[i + 1] = queue[i + 1], queue[i]
            candidate = (
                schedule.with_queues(queue, schedule.gpu_queue)
                if side == "cpu"
                else schedule.with_queues(schedule.cpu_queue, queue)
            )
            m = evaluate(candidate)
            if m < best_makespan * (1.0 - ADJACENT_MIN_GAIN):
                schedule, best_makespan = candidate, m
            else:
                queue[i], queue[i + 1] = queue[i + 1], queue[i]
    return schedule, best_makespan


def _random_intra_pass(
    schedule: CoSchedule,
    evaluate: ScheduleEvaluator,
    best_makespan: float,
    rng: np.random.Generator,
    n_samples: int,
) -> tuple[CoSchedule, float]:
    for _ in range(n_samples):
        sides = [
            s
            for s in ("cpu", "gpu")
            if len(schedule.cpu_queue if s == "cpu" else schedule.gpu_queue) >= 2
        ]
        if not sides:
            break
        side = sides[int(rng.integers(len(sides)))]
        queue = list(schedule.cpu_queue if side == "cpu" else schedule.gpu_queue)
        i, j = rng.choice(len(queue), size=2, replace=False)
        queue[i], queue[j] = queue[j], queue[i]
        candidate = (
            schedule.with_queues(queue, schedule.gpu_queue)
            if side == "cpu"
            else schedule.with_queues(schedule.cpu_queue, queue)
        )
        m = evaluate(candidate)
        if m < best_makespan * (1.0 - RANDOM_MIN_GAIN):
            schedule, best_makespan = candidate, m
    return schedule, best_makespan


def _random_cross_pass(
    schedule: CoSchedule,
    evaluate: ScheduleEvaluator,
    best_makespan: float,
    rng: np.random.Generator,
    n_samples: int,
) -> tuple[CoSchedule, float]:
    for _ in range(n_samples):
        if not schedule.cpu_queue or not schedule.gpu_queue:
            break
        cpu = list(schedule.cpu_queue)
        gpu = list(schedule.gpu_queue)
        i = int(rng.integers(len(cpu)))
        j = int(rng.integers(len(gpu)))
        cpu[i], gpu[j] = gpu[j], cpu[i]
        candidate = schedule.with_queues(cpu, gpu)
        m = evaluate(candidate)
        if m < best_makespan * (1.0 - RANDOM_MIN_GAIN):
            schedule, best_makespan = candidate, m
    return schedule, best_makespan


def _refine_vectorized(
    schedule: CoSchedule, evaluate: ScheduleEvaluator, best: float
) -> CoSchedule | None:
    """Full-neighborhood steepest descent over the tensor tables.

    Returns the refined schedule, or ``None`` when this evaluator cannot
    batch-score the schedule (scalar-path context, uncovered uids) and the scalar sampling passes should run instead.  The
    vectorized neighborhood is a superset of what the scalar passes
    sample — every adjacent, intra-queue, and cross-queue swap — scored
    in one lockstep replay per round; infeasible candidates come back as
    ``np.inf`` and are skipped rather than raising, since a swap that
    breaks the cap is simply not an improvement.
    """
    from repro.perf.tensor import BatchScheduleEvaluator

    if not isinstance(evaluate, BatchScheduleEvaluator):
        return None
    index = evaluate.tensor.index
    if any(uid not in index for uid in schedule.all_uids()):
        return None
    from repro.perf.population import refine_queues

    tail = tuple((index[j.uid], kind) for j, kind in schedule.solo_tail)
    # Queues hold positions into ``queued``; jobs of one program share a
    # tensor row, so rows alone could not tell the refined jobs apart.
    queued = (*schedule.cpu_queue, *schedule.gpu_queue)
    row = np.array([index[j.uid] for j in queued], dtype=np.int64)

    def score_queues(Qc, len_c, Qg, len_g):
        scores, _, _, _, _ = evaluate.score_population(
            row[Qc], len_c, row[Qg], len_g, solo_tail=tail
        )
        return scores

    n_cpu = len(schedule.cpu_queue)
    cpu, gpu, _ = refine_queues(
        score_queues,
        np.arange(n_cpu),
        np.arange(n_cpu, len(queued)),
        best,
        adjacent_min_gain=ADJACENT_MIN_GAIN,
        random_min_gain=RANDOM_MIN_GAIN,
    )
    refined = schedule.with_queues(
        tuple(queued[int(i)] for i in cpu),
        tuple(queued[int(i)] for i in gpu),
    )
    # Prime the memoized per-schedule score (bitwise equal to the lane's).
    evaluate(refined)
    return refined


def refine_schedule(
    schedule: CoSchedule,
    ctx: SchedulingContext,
    *,
    n_samples: int | None = None,
    vectorized: bool = True,
) -> CoSchedule:
    """Apply the three refinement passes; returns the improved schedule.

    The context's evaluator scores every candidate and its seed drives the
    random passes, so the swaps minimize the context's *objective*, not
    necessarily the makespan.  Refine under another seed with
    ``refine_schedule(schedule, ctx.with_seed(seed))``.

    On a tensor-backed context the passes are replaced by vectorized
    full-neighborhood steepest descent (see
    :mod:`repro.perf.population`): deterministic, samples nothing, and
    never accepts a smaller gain than the scalar passes would.
    ``vectorized=False`` pins the scalar sampling passes (the equivalence
    referee).
    """
    evaluate = ctx.evaluator
    if n_samples is None:
        n_samples = max(1, SAMPLES_PER_JOB * schedule.n_jobs)
    best = evaluate(schedule)
    refined = _refine_vectorized(schedule, evaluate, best) if vectorized else None
    if refined is not None:
        schedule = refined
    else:
        rng = ctx.rng()
        schedule, best = _adjacent_pass(schedule, evaluate, best)
        schedule, best = _random_intra_pass(
            schedule, evaluate, best, rng, n_samples
        )
        schedule, best = _random_cross_pass(
            schedule, evaluate, best, rng, n_samples
        )
    from repro.analysis.invariants import maybe_check_schedule

    maybe_check_schedule(ctx, schedule, where="refine")
    return schedule
