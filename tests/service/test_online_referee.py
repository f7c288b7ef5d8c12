"""``engine.run`` under ``ReplanOnlinePolicy`` referees the daemon's session.

The session and the referee share nothing but the rule's code: the
referee profiles its own model, builds its own scheduler and governor,
and executes the arrival trace in one ``engine.run`` call.  Without cap
changes, every completion the session records must then match the
referee's run bit for bit.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.api import Scheduler
from repro.core.context import SchedulingContext
from repro.core.fleet import Node, node_predictor
from repro.core.objectives import governor_for
from repro.core.online import ReplanOnlinePolicy
from repro.core.schedule import CoSchedule
from repro.engine.sim import Scenario, run
from repro.hardware.device import DeviceKind
from repro.model.characterize import characterize_space
from repro.model.predictor import CoRunPredictor
from repro.model.profiler import profile_workload
from repro.service.session import ServiceSession
from repro.workload.generator import random_workload
from repro.workload.program import make_jobs
from repro.workload.rodinia import rodinia_programs

SEED = 3


def _arrivals(jobs, gap_s: float) -> list:
    return [(job, i * gap_s) for i, job in enumerate(jobs)]


def _session(arrivals, method, cap_w, objective, node=None) -> ServiceSession:
    session = ServiceSession(
        method=method, cap_w=cap_w, objective=objective, seed=SEED, node=node
    )
    for job, at_s in arrivals:
        session.submit(job, at_s)
    return session


def _session_log(arrivals, method, cap_w, objective, node=None) -> list:
    completions, rejections = _session(
        arrivals, method, cap_w, objective, node
    ).drain()
    assert rejections == []
    assert len(completions) == len(arrivals)
    return sorted((c.job_id, c.kind, c.start_s, c.finish_s) for c in completions)


def _model(processor, jobs) -> CoRunPredictor:
    return CoRunPredictor(
        processor, profile_workload(processor, jobs), characterize_space(processor)
    )


def _log(result) -> list:
    return sorted(
        (iv.job, iv.device, iv.t0_s, iv.t1_s) for iv in result.timeline
    )


def _referee_log(processor, arrivals, method, cap_w, objective) -> list:
    jobs = [job for job, _ in arrivals]
    predictor = _model(processor, jobs)
    ctx = SchedulingContext.build(
        jobs, cap_w=cap_w, objective=objective, predictor=predictor
    )
    policy = ReplanOnlinePolicy(
        Scheduler(
            method, cap_w=cap_w, objective=objective, predictor=predictor,
            seed=SEED,
        )
    )
    return _log(run(ctx, Scenario.from_arrivals(arrivals), policy=policy))


_RANDOM_CASES = [
    (method, objective, cap_w, gap_s, n_jobs)
    for method in ("hcs", "hcs+", "genetic", "random")
    for objective in ("makespan", "energy")
    for cap_w in (12.0, 20.0)
    for gap_s in (0.0, 9.0)
    for n_jobs in (8, 14)
]


class TestReferee:
    @pytest.mark.parametrize(
        "method, objective, cap_w, gap_s, n_jobs", _RANDOM_CASES
    )
    def test_random_jobs(
        self, processor, method, objective, cap_w, gap_s, n_jobs
    ):
        arrivals = _arrivals(random_workload(n_jobs, seed=n_jobs), gap_s)
        assert _session_log(arrivals, method, cap_w, objective) == _referee_log(
            processor, arrivals, method, cap_w, objective
        )

    @pytest.mark.parametrize(
        "method", ["hcs", "hcs+", "genetic", "random", "default", "portfolio"]
    )
    def test_rodinia(self, processor, method):
        arrivals = _arrivals(make_jobs(rodinia_programs()), 5.0)
        assert _session_log(arrivals, method, 15.0, "makespan") == _referee_log(
            processor, arrivals, method, 15.0, "makespan"
        )

    @pytest.mark.parametrize("objective", ["makespan", "energy"])
    def test_node_scaled_session(self, processor, objective):
        node = Node("scaled", speed_scale=1.5, power_scale=1.2)
        arrivals = _arrivals(random_workload(10, seed=4), 6.0)
        predictor = _model(processor, [job for job, _ in arrivals])
        policy = ReplanOnlinePolicy(
            Scheduler(
                "hcs", cap_w=15.0, objective=objective, predictor=predictor,
                seed=SEED, node=node,
            )
        )
        governor = governor_for(
            node_predictor(predictor, node), 15.0, objective
        )
        referee = run(
            processor, Scenario.from_arrivals(arrivals), policy=policy,
            governor=governor,
        )
        assert _session_log(
            arrivals, "hcs", 15.0, objective, node
        ) == _log(referee)


def _start_order(log) -> list:
    return [(job, kind) for job, kind, _, _ in sorted(log, key=lambda r: r[2])]


class TestSteppedAdvance:
    def test_stepped_advance_keeps_the_start_order(self, processor):
        # Each advance bound splits a running segment, so finish times may
        # move in the last bits; which job starts where, in which order,
        # may not.
        arrivals = _arrivals(random_workload(16, seed=16), 16.0)
        drained = _session_log(arrivals, "hcs", 15.0, "makespan")
        session = _session(arrivals, "hcs", 15.0, "makespan")
        stepped = []
        while not session.idle:
            completions, rejections = session.advance(session.now + 7.3)
            assert rejections == []
            stepped.extend(completions)
        stepped = sorted(
            (c.job_id, c.kind, c.start_s, c.finish_s) for c in stepped
        )
        assert _start_order(stepped) == _start_order(drained)
        for got, want in zip(stepped, drained):
            assert got[2] == pytest.approx(want[2], rel=1e-9, abs=1e-12)
            assert got[3] == pytest.approx(want[3], rel=1e-9)


class _FixedPlan:
    """A scheduler stand-in that hands out one plan for every pool."""

    node = None

    def __init__(self, plan, pairs_fit: bool) -> None:
        self.plan = plan
        self.cap_w = 15.0
        self.calls = 0
        fits = ("a-setting",) if pairs_fit else ()
        self.predictor = SimpleNamespace(
            feasible_pair_settings=lambda cpu_uid, gpu_uid, cap_w: fits
        )

    def __call__(self, jobs):
        self.calls += 1
        return SimpleNamespace(schedule=self.plan)

    def set_cap(self, cap_w: float) -> None:
        self.cap_w = cap_w


class TestPolicy:
    @pytest.fixture
    def abc(self, rodinia_jobs):
        return rodinia_jobs[:3]

    @pytest.mark.parametrize("pairs_fit", [True, False])
    def test_head_waits_when_it_would_bust_the_cap(self, abc, pairs_fit):
        a, b, _ = abc
        policy = ReplanOnlinePolicy(
            _FixedPlan(CoSchedule(gpu_queue=(a,)), pairs_fit)
        )
        got = policy(DeviceKind.GPU, [a], b, 0.0)
        assert got is (a if pairs_fit else None)
        assert policy(DeviceKind.GPU, [a], None, 0.0) is a

    def test_solo_tail_is_issued_only_to_a_lone_device(self, abc):
        a, b, c = abc
        plan = CoSchedule(gpu_queue=(a,), solo_tail=((c, DeviceKind.CPU),))
        policy = ReplanOnlinePolicy(_FixedPlan(plan, pairs_fit=True))
        assert policy(DeviceKind.CPU, [a, c], b, 0.0) is None
        assert policy(DeviceKind.CPU, [a, c], None, 0.0) is c

    def test_one_plan_per_pool_until_the_cap_changes(self, abc):
        a, b, c = abc
        scheduler = _FixedPlan(CoSchedule(cpu_queue=(a,)), pairs_fit=True)
        policy = ReplanOnlinePolicy(scheduler)
        policy(DeviceKind.CPU, [a, b], None, 0.0)
        policy(DeviceKind.GPU, [b, a], None, 0.0)
        assert scheduler.calls == 1
        assert list(policy.plans) == [(15.0, tuple(sorted((a.uid, b.uid))))]
        policy(DeviceKind.CPU, [a, b, c], None, 0.0)
        assert scheduler.calls == 2
        policy.set_cap(12.0)
        assert policy.plans == {}
        assert scheduler.cap_w == 12.0
        policy(DeviceKind.CPU, [a, b], None, 0.0)
        assert scheduler.calls == 3
        assert list(policy.plans) == [(12.0, tuple(sorted((a.uid, b.uid))))]

    def test_empty_pool_plans_nothing(self, abc):
        scheduler = _FixedPlan(CoSchedule(), pairs_fit=True)
        assert ReplanOnlinePolicy(scheduler)(DeviceKind.CPU, [], None, 0.0) is None
        assert scheduler.calls == 0
