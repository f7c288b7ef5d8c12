"""The ``evaluate_all`` contract of both schedule evaluators.

``evaluate_all`` scores a list of schedules at once.  Whatever path does
the scoring (the scalar chain, a per-schedule table replay, or one lockstep
replay of the whole batch), the caller sees the same thing as calling the
evaluator on each schedule in order: the same scores, ``inf`` for an
infeasible schedule, and cache counters where each distinct uncached
schedule costs one miss and every repeat or cached schedule one hit.
"""

from __future__ import annotations

import math

import pytest

from repro.core.baselines import random_schedule
from repro.core.context import SchedulingContext
from repro.core.schedule import CoSchedule, PredictedMetrics
from repro.perf.evaluator import INFEASIBLE, schedule_key
from repro.perf.tensor import LOCKSTEP_MIN_BATCH, BatchScheduleEvaluator
from tests.scalar import scalar_context

CAP_W = 15.0

CASES = [
    (backend, objective)
    for backend in ("scalar", "tensor")
    for objective in ("makespan", "energy")
]


def _evaluator(base: SchedulingContext, backend, objective, cap_w=CAP_W):
    """A fresh evaluator (with its own empty cache) over ``base``'s jobs."""
    ctx = SchedulingContext(
        jobs=base.jobs,
        cap_w=cap_w,
        predictor=base.base_predictor,
        objective=objective,
    )
    if backend == "scalar":
        ctx = scalar_context(ctx)
    assert isinstance(ctx.evaluator, BatchScheduleEvaluator) == (
        backend == "tensor"
    )
    return ctx.evaluator


def _entries_per_schedule(objective: str) -> int:
    # A makespan score is one entry; an energy score also caches the
    # schedule's metrics under its own key.
    return 1 if objective == "makespan" else 2


def _distinct(schedules) -> int:
    return len({schedule_key(s) for s in schedules})


@pytest.fixture(scope="module")
def six(predictor, rodinia_jobs):
    """A scalar context over the first six jobs (the evaluators' base)."""
    return scalar_context(
        SchedulingContext(jobs=rodinia_jobs[:6], cap_w=CAP_W, predictor=predictor)
    )


@pytest.fixture(scope="module")
def eight(predictor, rodinia_jobs):
    """A scalar context over all eight jobs."""
    return scalar_context(
        SchedulingContext(jobs=rodinia_jobs, cap_w=CAP_W, predictor=predictor)
    )


@pytest.fixture(scope="module")
def schedules(rodinia_jobs):
    """Schedules over six jobs, plus one that also places the other two.

    The last one is outside a six-job context's tables, so the tensor
    evaluator scores it on the scalar path.
    """
    six = rodinia_jobs[:6]
    inside = [random_schedule(six, seed=s) for s in range(LOCKSTEP_MIN_BATCH + 4)]
    outside = random_schedule(rodinia_jobs, seed=99)
    return inside, outside


@pytest.mark.parametrize("backend,objective", CASES)
class TestEvaluateAllContract:
    def test_small_batch_scores_and_counters(
        self, six, schedules, backend, objective
    ):
        inside, outside = schedules
        ev = _evaluator(six, backend, objective)
        ref = _evaluator(six, backend, objective)
        per = _entries_per_schedule(objective)
        a, b, c = inside[:3]

        ev(a)  # already cached before the batch
        assert (ev.cache.stats.hits, ev.cache.stats.misses) == (0, per)
        assert len(ev.cache) == per

        batch = [b, a, b, c, outside, c]
        new = _distinct(batch) - 1  # all but ``a``
        got = ev.evaluate_all(batch)
        # repro: noqa REP003 -- batch scores equal one-at-a-time scores
        assert got == [ref(s) for s in batch]
        hits = len(batch) - new
        assert ev.cache.stats.hits == hits
        assert ev.cache.stats.misses == per + new
        assert len(ev.cache) == per * (1 + new)

        # A second pass is all hits and adds no entries.
        # repro: noqa REP003 -- cached scores are the computed ones
        assert ev.evaluate_all(batch) == got
        assert ev.cache.stats.hits == hits + len(batch)
        assert ev.cache.stats.misses == per + new
        assert len(ev.cache) == per * (1 + new)

    def test_lockstep_batch_scores_and_counters(
        self, six, schedules, backend, objective
    ):
        inside, outside = schedules
        ev = _evaluator(six, backend, objective)
        ref = _evaluator(six, backend, objective)
        per = _entries_per_schedule(objective)

        batch = inside + inside[:5] + [outside]
        new = _distinct(batch)
        assert new >= LOCKSTEP_MIN_BATCH
        got = ev.evaluate_all(batch)
        # repro: noqa REP003 -- batch scores equal one-at-a-time scores
        assert got == [ref(s) for s in batch]
        assert ev.cache.stats.hits == len(batch) - new
        assert ev.cache.stats.misses == new
        assert len(ev.cache) == per * new

    @pytest.mark.parametrize("size", ["small", "lockstep"])
    def test_infeasible_schedule_scores_inf_like_in_order_calls(
        self, eight, backend, objective, size
    ):
        # At 9 W, streamcluster on the CPU beside leukocyte on the GPU has
        # no cap-feasible setting; every other pair has one.
        jobs = eight.jobs
        by_uid = {j.uid: j for j in jobs}
        bad = CoSchedule(
            cpu_queue=(by_uid["streamcluster"],),
            gpu_queue=(by_uid["leukocyte"],),
        )
        count = 3 if size == "small" else LOCKSTEP_MIN_BATCH + 2
        good = [
            random_schedule(jobs, seed=s, solo_prob=0.0) for s in range(200)
        ]
        good = [s for s in good if not _pairs_with(s, "streamcluster", "leukocyte")]
        batch = good[:count] + [bad] + good[count:count + 2]

        ref = _evaluator(eight, backend, objective, cap_w=9.0)
        expected = [ref(s) for s in batch]
        assert [math.isinf(x) for x in expected] == [s is bad for s in batch]
        ev = _evaluator(eight, backend, objective, cap_w=9.0)
        # repro: noqa REP003 -- batch scores equal one-at-a-time scores
        assert ev.evaluate_all(batch) == expected
        new = _distinct(batch)
        assert ev.cache.stats.hits == len(batch) - new
        assert ev.cache.stats.misses == new
        assert len(ev.cache) == _entries_per_schedule(objective) * new
        # The other backend agrees lane by lane, feasible lanes to the bit.
        other = "scalar" if backend == "tensor" else "tensor"
        # repro: noqa REP003 -- byte-identical backend contract
        assert _evaluator(eight, other, objective, cap_w=9.0).evaluate_all(
            batch
        ) == expected
        assert ev.metrics(bad) == PredictedMetrics(*INFEASIBLE)


def _pairs_with(schedule, cpu_uid: str, gpu_uid: str) -> bool:
    """Could ``cpu_uid`` (on the CPU) ever co-run with ``gpu_uid``?"""
    return any(j.uid == cpu_uid for j in schedule.cpu_queue) and any(
        j.uid == gpu_uid for j in schedule.gpu_queue
    )
