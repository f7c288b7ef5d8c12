"""Exhaustive search for the best co-schedule of small instances.

The optimal co-scheduling problem is NP-hard (Section IV), so exhaustive
search is only viable for a handful of jobs — which is exactly what the
test suite needs: a trustworthy optimum to hold the heuristic and the lower
bound against.

The search enumerates every assignment of jobs to {CPU queue, GPU queue,
solo tail} and every ordering of the two queues, evaluating each candidate
with the supplied evaluation function (predicted makespan by default, or the
ground-truth engine).  Queue order within the solo tail does not affect the
makespan, so tail permutations are skipped.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence

from repro.hardware.device import DeviceKind
from repro.workload.program import Job
from repro.core.schedule import CoSchedule
from repro.perf.tensor import BatchScheduleEvaluator

#: Enumerating beyond this many jobs is a bug, not a test.
MAX_BRUTE_FORCE_JOBS = 7

#: Schedules scored per ``evaluate_all`` call on the batch path.
_CHUNK = 256


def enumerate_schedules(
    jobs: Sequence[Job], *, include_solo: bool = True
):
    """Yield every distinct co-schedule of ``jobs``.

    With ``include_solo`` False, only two-queue schedules are generated
    (3^n drops to 2^n assignments).
    """
    n = len(jobs)
    if n > MAX_BRUTE_FORCE_JOBS:
        raise ValueError(
            f"refusing to enumerate {n} jobs (max {MAX_BRUTE_FORCE_JOBS})"
        )
    placements = (
        itertools.product(("cpu", "gpu", "solo"), repeat=n)
        if include_solo
        else itertools.product(("cpu", "gpu"), repeat=n)
    )
    for placement in placements:
        cpu_set = [j for j, p in zip(jobs, placement) if p == "cpu"]
        gpu_set = [j for j, p in zip(jobs, placement) if p == "gpu"]
        solo_set = [j for j, p in zip(jobs, placement) if p == "solo"]
        solo_variants = (
            itertools.product(tuple(DeviceKind), repeat=len(solo_set))
            if solo_set
            else [()]
        )
        for cpu_perm in itertools.permutations(cpu_set):
            for gpu_perm in itertools.permutations(gpu_set):
                for kinds in solo_variants:
                    yield CoSchedule(
                        cpu_queue=cpu_perm,
                        gpu_queue=gpu_perm,
                        solo_tail=tuple(zip(solo_set, kinds)),
                    )


def _chunks(iterable, size: int):
    it = iter(iterable)
    while True:
        chunk = list(itertools.islice(it, size))
        if not chunk:
            return
        yield chunk


def brute_force_best(
    jobs: Sequence[Job],
    evaluate: Callable[[CoSchedule], float],
    *,
    include_solo: bool = True,
) -> tuple[CoSchedule, float]:
    """Best schedule under ``evaluate`` (lower is better) and its score.

    Ties resolve to the earliest schedule in enumeration order.
    """
    if not jobs:
        raise ValueError("cannot search over an empty job set")
    best_schedule: CoSchedule | None = None
    best_score = math.inf
    schedules = enumerate_schedules(jobs, include_solo=include_solo)
    if isinstance(evaluate, BatchScheduleEvaluator):
        # A tensor-backed evaluator scores a whole chunk in one lockstep
        # sweep; strict ``<`` keeps the earliest-in-order tie winner.
        for chunk in _chunks(schedules, _CHUNK):
            for schedule, score in zip(chunk, evaluate.evaluate_all(chunk)):
                if score < best_score:
                    best_schedule, best_score = schedule, score
    else:
        for schedule in schedules:
            score = evaluate(schedule)
            if score < best_score:
                best_schedule, best_score = schedule, score
    if best_schedule is None:
        raise ValueError("no schedules enumerated (empty job set?)")
    return best_schedule, best_score
