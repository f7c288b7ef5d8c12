"""The replay table's solo-cell rule, shared by every solo tail.

At 7.25 W no Rodinia pair fits the cap, every GPU solo level does, and the
CPU solo cells of streamcluster, hotspot, srad, leukocyte and heartwall
are infeasible (unit time, NaN power).  GPU-only queues therefore replay
cleanly, and a shared ``(streamcluster, CPU)`` solo tail is the one thing
that makes them infeasible — on the population path, on the per-schedule
loop and through the evaluator's scalar fallback alike.
"""

import math

import numpy as np
import pytest

from repro.core.context import SchedulingContext
from repro.core.schedule import CoSchedule, PredictedMetrics
from repro.hardware.device import DeviceKind
from repro.perf.evaluator import INFEASIBLE
from tests.scalar import scalar_context

CAP_W = 7.25
CPU_INFEASIBLE = {"streamcluster", "hotspot", "srad", "leukocyte", "heartwall"}
TAIL_UID = "streamcluster"


@pytest.fixture(scope="module")
def ctx(predictor, rodinia_jobs):
    return SchedulingContext(
        jobs=rodinia_jobs, cap_w=CAP_W, predictor=predictor
    )


@pytest.fixture(scope="module")
def lanes(ctx):
    """GPU-only queues over the other seven jobs: every prefix of two
    orders."""
    others = [job for job in ctx.jobs if job.uid != TAIL_UID]
    return [
        tuple(order[:k])
        for order in (others, others[::-1])
        for k in range(1, len(others) + 1)
    ]


def _population(ev, lanes):
    """``(Qc, len_c, Qg, len_g)``: empty CPU queues, -1-padded GPU rows."""
    K = len(lanes)
    Qg = np.full((K, max(len(q) for q in lanes)), -1, dtype=np.int64)
    for k, q in enumerate(lanes):
        Qg[k, : len(q)] = [ev.tensor.index[job.uid] for job in q]
    return (
        np.zeros((K, 1), dtype=np.int64), np.zeros(K, dtype=np.int64),
        Qg, np.array([len(q) for q in lanes]),
    )


def _with_tail(ctx, gpu):
    tail_job = next(job for job in ctx.jobs if job.uid == TAIL_UID)
    return CoSchedule(
        cpu_queue=(), gpu_queue=gpu, solo_tail=((tail_job, DeviceKind.CPU),)
    )


def test_solo_cells_at_the_cap(ctx):
    tables = ctx.evaluator.tables
    assert not tables.pair_valid.any()
    for job in ctx.jobs:
        row = ctx.evaluator.tensor.index[job.uid]
        t, power = tables.solo_cell(row, DeviceKind.CPU)
        assert math.isnan(power) == (job.uid in CPU_INFEASIBLE)
        if math.isnan(power):
            assert t == 1.0
        assert not math.isnan(tables.solo_cell(row, DeviceKind.GPU)[1])


def test_gpu_only_lanes_are_feasible_without_the_tail(ctx, lanes):
    ev = ctx.evaluator
    scores, *_, bad = ev.score_population(*_population(ev, lanes))
    assert not bad.any() and np.isfinite(scores).all()
    for gpu in lanes:
        assert ev._indexed_replay(CoSchedule(cpu_queue=(), gpu_queue=gpu))


def test_an_infeasible_shared_tail_makes_every_lane_bad(ctx, lanes):
    ev = ctx.evaluator
    tail = ((ev.tensor.index[TAIL_UID], DeviceKind.CPU),)
    scores, *_, bad = ev.score_population(*_population(ev, lanes), solo_tail=tail)
    assert bad.all() and np.isinf(scores).all()


@pytest.mark.parametrize("objective", ["makespan", "energy"])
def test_an_infeasible_tail_scores_inf_on_every_path(ctx, lanes, objective):
    octx = ctx.with_objective(objective)
    ev, scalar = octx.evaluator, scalar_context(octx).evaluator
    for gpu in lanes:
        sched = _with_tail(ctx, gpu)
        assert ev._indexed_replay(sched) == INFEASIBLE
        assert ev(sched) == scalar(sched) == math.inf
        assert ev.metrics(sched) == scalar.metrics(sched) == PredictedMetrics(
            *INFEASIBLE
        )
