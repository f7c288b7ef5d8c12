"""One infeasibility rule: the cap certificate raises, an infeasible move scores ``inf``.

Definition 2.1 makes the power cap a hard limit on what may run together.
A request is infeasible exactly when some job has no cap-feasible solo
level on either device: :func:`~repro.core.api.dispatch` checks that
certificate once and raises :class:`InfeasibleCapError` naming every
stranded job.  Past it, a combination no setting fits is a move the
searches avoid: both evaluators score it ``inf`` under every objective,
and a plan that still scores ``inf`` is repaired before it becomes a
result.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import verify_schedule
from repro.core.api import dispatch, schedule, scheduler_names
from repro.core.bruteforce import MAX_BRUTE_FORCE_JOBS
from repro.core.context import SchedulingContext, build_predictor
from repro.core.feasibility import move_to_tail, repair_schedule
from repro.core.genetic import GaConfig
from repro.core.schedule import CoSchedule
from repro.errors import InfeasibleCapError
from repro.hardware.device import DeviceKind
from repro.model.predictor import CoRunPredictor
from repro.model.profiler import ProfileTable, extend_table, profile_workload
from repro.objective import Objective
from repro.perf.cache import EvalCache
from repro.util.rng import default_rng
from repro.workload.generator import random_program, random_workload
from repro.workload.program import Job
from repro.workload.rodinia import rodinia_programs
from tests.scalar import scalar_context

SMALL_GA = GaConfig(population=8, generations=3)
#: Every registry method but the exponential A*, with a small GA.
METHOD_OPTS = {
    "hcs": {},
    "hcs+": {},
    "genetic": {"config": SMALL_GA},
    "random": {},
    "default": {},
    "portfolio": {"member_opts": {"genetic": {"config": SMALL_GA}}},
}

POOL = (
    *rodinia_programs(),
    *(random_program(seed, name=f"synth-{seed}") for seed in range(8)),
)

#: Sweeps shared by profile content across examples.
_SWEEPS = EvalCache()

#: At 5.8 W these three Rodinia jobs fit the cap on neither device; the
#: other five fit it on the GPU alone.
STRANDED_AT_5_8 = {"dwt2d", "hotspot", "leukocyte"}


def _predictor(processor, space, picks) -> tuple[list[Job], CoRunPredictor]:
    jobs = [Job(uid=f"{POOL[p].name}#{k}", profile=POOL[p]) for k, p in enumerate(picks)]
    empty = ProfileTable(processor=processor, jobs=(), _profiles={})
    table = extend_table(empty, jobs, cache=_SWEEPS)
    return jobs, CoRunPredictor(processor, table, space)


def _stranded(ctx) -> set[str]:
    return {
        job.uid
        for job in ctx.jobs
        if not any(
            ctx.predictor.feasible_solo_levels(job.uid, kind, ctx.cap_w)
            for kind in DeviceKind
        )
    }


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    picks=st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=8),
    cap=st.floats(min_value=6.0, max_value=20.0),
    objective=st.sampled_from(["makespan", "energy"]),
    scalar=st.booleans(),
)
def test_every_method_plans_feasibly_or_names_every_stranded_job(
    processor, space, picks, cap, objective, scalar
):
    jobs, predictor = _predictor(processor, space, picks)
    ctx = SchedulingContext.build(
        jobs, cap_w=cap, objective=objective, predictor=predictor, seed=0
    )
    if scalar:
        ctx = scalar_context(ctx)
    stranded = _stranded(ctx)
    methods = dict(METHOD_OPTS)
    if len(jobs) <= MAX_BRUTE_FORCE_JOBS:
        methods["brute"] = {}
    for method, opts in methods.items():
        if stranded:
            with pytest.raises(InfeasibleCapError) as exc:
                dispatch(ctx, method, **opts)
            assert set(exc.value.jobs) == stranded, method
            continue
        result = dispatch(ctx, method, **opts)
        assert math.isfinite(result.predicted_score), method
        assert verify_schedule(ctx, result.schedule) == [], method


@pytest.mark.parametrize("method", scheduler_names())
def test_the_certificate_names_every_stranded_job(predictor, rodinia_jobs, method):
    with pytest.raises(InfeasibleCapError) as exc:
        schedule(rodinia_jobs, method, cap_w=5.8, predictor=predictor)
    assert set(exc.value.jobs) == STRANDED_AT_5_8
    assert exc.value.cap_w == 5.8


@pytest.mark.parametrize("scalar", [False, True])
def test_the_certificate_reads_either_path(predictor, rodinia_jobs, scalar):
    ctx = SchedulingContext(jobs=rodinia_jobs, cap_w=5.8, predictor=predictor)
    if scalar:
        ctx = scalar_context(ctx)
    assert (ctx.tensor is None) == scalar
    assert _stranded(ctx) == STRANDED_AT_5_8
    with pytest.raises(InfeasibleCapError) as exc:
        dispatch(ctx, "hcs")
    assert set(exc.value.jobs) == STRANDED_AT_5_8


@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("scalar", [False, True])
def test_an_infeasible_schedule_scores_inf_under_every_objective(
    predictor, rodinia_jobs, objective, scalar
):
    # At 6 W every job fits on the GPU alone and no pair fits at all.
    ctx = SchedulingContext(
        jobs=rodinia_jobs, cap_w=6.0, predictor=predictor, objective=objective
    )
    if scalar:
        ctx = scalar_context(ctx)
    jobs = ctx.jobs
    bad = [
        CoSchedule(cpu_queue=jobs[:1], gpu_queue=jobs[1:]),
        CoSchedule(cpu_queue=jobs),
        CoSchedule(gpu_queue=jobs[1:], solo_tail=((jobs[0], DeviceKind.CPU),)),
    ]
    for sched in bad:
        assert math.isinf(ctx.score(sched)) and ctx.score(sched) > 0
        assert math.isinf(ctx.predicted_makespan(sched))
    assert ctx.evaluator.evaluate_all(bad) == [math.inf] * len(bad)
    assert math.isfinite(ctx.score(CoSchedule(gpu_queue=jobs)))


@pytest.mark.parametrize("scalar", [False, True])
def test_repair_moves_jobs_of_infeasible_combinations_to_the_tail(
    predictor, rodinia_jobs, scalar
):
    ctx = SchedulingContext(jobs=rodinia_jobs, cap_w=6.0, predictor=predictor)
    if scalar:
        ctx = scalar_context(ctx)
    jobs = ctx.jobs
    sched = CoSchedule(cpu_queue=jobs[:3], gpu_queue=jobs[3:])
    repaired = move_to_tail(ctx, sched)
    assert math.isfinite(ctx.score(repaired))
    assert sorted(repaired.all_uids()) == sorted(sched.all_uids())
    # Nothing runs on the CPU at 6 W, so every CPU job ends in the tail,
    # on the GPU; what stays in the GPU queue keeps its order.
    assert repaired.cpu_queue == ()
    kept = [j for j in jobs[3:] if j in repaired.gpu_queue]
    assert list(repaired.gpu_queue) == kept
    assert {j.uid for j, _ in repaired.solo_tail} >= {j.uid for j in jobs[:3]}
    assert all(kind is DeviceKind.GPU for _, kind in repaired.solo_tail)
    assert verify_schedule(ctx, repaired) == []
    # Deterministic, and a feasible plan comes back as it is.
    assert move_to_tail(ctx, sched) == repaired
    assert repair_schedule(ctx, repaired) is repaired
    # The full repair keeps the tail plan unless a one-device plan scores
    # strictly lower (at 6 W every plan runs the jobs one by one on the
    # GPU, so the two differ by summation order at most).
    gpu_only = CoSchedule(gpu_queue=jobs)
    want = gpu_only if ctx.score(gpu_only) < ctx.score(repaired) else repaired
    assert repair_schedule(ctx, sched) == want


def _random_plan(jobs, seed: int) -> CoSchedule:
    """A cap-blind plan: jobs shuffled over the two queues and the tail."""
    rng = default_rng(seed)
    order = [jobs[i] for i in rng.permutation(len(jobs))]
    where = rng.integers(0, 4, size=len(jobs)).tolist()
    return CoSchedule(
        cpu_queue=tuple(j for j, w in zip(order, where) if w == 0),
        gpu_queue=tuple(j for j, w in zip(order, where) if w == 1),
        solo_tail=tuple(
            (j, DeviceKind.CPU if w == 2 else DeviceKind.GPU)
            for j, w in zip(order, where)
            if w >= 2
        ),
    )


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    picks=st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=8),
    cap=st.floats(min_value=6.0, max_value=12.0),
    objective=st.sampled_from(["makespan", "energy"]),
    scalar=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_a_repaired_plan_never_scores_worse_than_a_one_device_plan(
    processor, space, picks, cap, objective, scalar, seed
):
    jobs, predictor = _predictor(processor, space, picks)
    ctx = SchedulingContext.build(
        jobs, cap_w=cap, objective=objective, predictor=predictor, seed=0
    )
    if scalar:
        ctx = scalar_context(ctx)
    if _stranded(ctx):
        return
    sched = _random_plan(ctx.jobs, seed)
    repaired = repair_schedule(ctx, sched)
    if math.isfinite(ctx.score(sched)):
        assert repaired is sched
        return
    score = ctx.score(repaired)
    assert math.isfinite(score)
    assert verify_schedule(ctx, repaired) == []
    assert score <= ctx.score(move_to_tail(ctx, sched))
    for plan in (CoSchedule(cpu_queue=ctx.jobs), CoSchedule(gpu_queue=ctx.jobs)):
        assert score <= ctx.score(plan)


def test_random_at_8_w_is_no_worse_than_the_one_device_plan():
    # The worst cell of the low-cap scan before one-device plans joined
    # the repair: random on the 8-job default_rng(1) instance at 8 W
    # planned x1.405 of the better one-device plan.
    jobs = random_workload(8, default_rng(1))
    predictor = build_predictor(jobs, cache=EvalCache())
    ctx = SchedulingContext.build(jobs, cap_w=8.0, predictor=predictor)
    one_device = min(
        ctx.predicted_makespan(CoSchedule(cpu_queue=ctx.jobs)),
        ctx.predicted_makespan(CoSchedule(gpu_queue=ctx.jobs)),
    )
    result = schedule(jobs, "random", cap_w=8.0, predictor=predictor, seed=0)
    assert result.predicted_makespan_s <= one_device


def test_a_48_job_portfolio_at_9_w_returns_a_feasible_plan(processor, space):
    # The fourth instance a 48/56/64-job sweep draws from default_rng(2):
    # at 9 W every member used to raise on its first infeasible pair.
    rng = default_rng(2)
    for size in (48, 56, 64, 48):
        jobs = random_workload(size, rng)
        seed = int(rng.integers(2**31))
    predictor = CoRunPredictor(processor, profile_workload(processor, jobs), space)
    result = schedule(
        jobs, "portfolio", cap_w=9.0, predictor=predictor, seed=seed,
        member_opts={"genetic": {"config": GaConfig(population=16, generations=4)}},
    )
    ctx = SchedulingContext.build(jobs, cap_w=9.0, predictor=predictor)
    assert verify_schedule(ctx, result.schedule) == []
    members = result.details["members"]
    assert all(math.isfinite(members[m]["score"]) for m in ("hcs", "hcs+", "genetic"))
    one_device = min(
        ctx.predicted_makespan(CoSchedule(cpu_queue=tuple(jobs))),
        ctx.predicted_makespan(CoSchedule(gpu_queue=tuple(jobs))),
    )
    assert result.predicted_makespan_s < one_device
