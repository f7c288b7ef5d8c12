"""Byte-identity of ``engine.run()`` against the frozen legacy executors.

The unified event core replaced four divergent executors; its contract is
that every *non-preemptive* scenario replays **byte-identically** — same
makespan bits, same completion records, same power-segment sequence — so
every number published by earlier PRs survives the migration unchanged.
The comparisons here are exact ``==`` on purpose, against the verbatim
legacy copies in ``_reference.py`` (comparing against the deprecation
shims would be vacuous: they forward to ``run()``).
"""

from __future__ import annotations

import pytest

from repro.analysis.invariants import SANITIZE_ENV
from repro.core.api import dispatch, scheduler_names
from repro.core.baselines import RandomOnlinePolicy
from repro.core.context import SchedulingContext
from repro.core.freqpolicy import ModelGovernor
from repro.core.online import FifoOnlinePolicy, HcsOnlinePolicy
from repro.engine.sim import Scenario, run
from repro.util.rng import default_rng
from tests.engine._reference import (
    reference_execute_default_schedule,
    reference_execute_online,
    reference_execute_schedule,
    reference_execute_with_arrivals,
)
from tests.scalar import scalar_context

CAP_W = 15.0


def _batch(jobs) -> Scenario:
    """Every job arriving at time zero."""
    return Scenario.from_arrivals([(job, 0.0) for job in jobs])


class _SeededSource:
    """A job source for the legacy online executor: each idle processor
    draws a uniformly random remaining job, or with probability
    ``idle_prob`` stays idle while the other processor is busy."""

    def __init__(self, jobs, *, seed, idle_prob=0.1):
        self._pool = list(jobs)
        self._rng = default_rng(seed)
        self.idle_prob = idle_prob

    def remaining(self):
        return len(self._pool)

    def next_job(self, kind, other_job, other_busy, now_s):
        if not self._pool:
            return None
        if other_busy and self._rng.random() < self.idle_prob:
            return None
        return self._pool.pop(int(self._rng.integers(len(self._pool))))


def assert_identical(execution, ref) -> None:
    """Exact equality on the legacy ``ScheduleExecution`` field set."""
    assert execution.makespan_s == ref.makespan_s  # repro: noqa REP003 -- byte-identity contract of the unified core
    assert execution.completions == ref.completions
    assert execution.segments == ref.segments
    assert execution.cpu_busy_s == ref.cpu_busy_s
    assert execution.gpu_busy_s == ref.gpu_busy_s


class TestRegistryByteIdentity:
    """All registry methods x both evaluation paths, sanitized."""

    @pytest.mark.parametrize("backend", ["tensor", "scalar"])
    @pytest.mark.parametrize("method", scheduler_names())
    def test_every_method_replays_identically(
        self, monkeypatch, processor, predictor, rodinia_jobs, method, backend
    ):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        ctx = SchedulingContext.build(
            rodinia_jobs[:4], cap_w=CAP_W, predictor=predictor, seed=7
        )
        if backend == "scalar":
            ctx = scalar_context(ctx)
        result = dispatch(ctx, method)
        execution = run(
            processor,
            Scenario.from_schedule(result.schedule),
            governor=result.governor,
        )
        ref = reference_execute_schedule(
            processor,
            list(result.schedule.cpu_queue),
            list(result.schedule.gpu_queue),
            result.governor,
            solo_tail=list(result.schedule.solo_tail),
        )
        assert_identical(execution, ref)


class TestScenarioByteIdentity:
    def test_fixed_queues_with_solo_tail(self, processor, predictor, rodinia_jobs):
        from repro.hardware.device import DeviceKind

        cpu_q, gpu_q = rodinia_jobs[:2], rodinia_jobs[2:4]
        tail = [(rodinia_jobs[4], DeviceKind.GPU), (rodinia_jobs[5], DeviceKind.CPU)]
        execution = run(
            processor,
            Scenario.from_queues(cpu_q, gpu_q, solo_tail=tail),
            governor=ModelGovernor(predictor, CAP_W),
        )
        ref = reference_execute_schedule(
            processor, cpu_q, gpu_q, ModelGovernor(predictor, CAP_W),
            solo_tail=tail,
        )
        assert_identical(execution, ref)

    @pytest.mark.parametrize("policy_cls", [FifoOnlinePolicy, None])
    def test_arrival_sequences_replay_identically(
        self, processor, predictor, rodinia_jobs, policy_cls
    ):
        arrivals = [(job, 11.0 * i) for i, job in enumerate(rodinia_jobs[:6])]

        def make_policy():
            if policy_cls is None:
                return HcsOnlinePolicy(
                    SchedulingContext.build(
                        rodinia_jobs[:6], cap_w=CAP_W, predictor=predictor
                    )
                )
            return policy_cls()

        execution = run(
            processor,
            Scenario.from_arrivals(arrivals),
            policy=make_policy(),
            governor=ModelGovernor(predictor, CAP_W),
        )
        ref_sim = reference_execute_with_arrivals(
            processor, arrivals, make_policy(), ModelGovernor(predictor, CAP_W)
        )
        assert_identical(execution, ref_sim.record())
        assert execution.arrivals == ref_sim.arrivals
        assert set(execution.starts) == set(ref_sim.starts)
        for uid, ref_start in ref_sim.starts.items():
            s = execution.starts[uid]
            assert (s.job, s.kind, s.start_s, s.setting, s.partner) == (
                ref_start.job,
                ref_start.kind,
                ref_start.start_s,
                ref_start.setting,
                ref_start.partner,
            )

    def test_online_source_replays_identically(
        self, processor, predictor, rodinia_jobs
    ):
        """The Random policy over a batch arriving at time zero replays the
        legacy online executor fed by a seeded job source: same segments
        and completions.  Arrivals differ by design: the batch's jobs all
        arrive at zero, where a source's job was stamped when it started."""
        execution = run(
            processor,
            _batch(rodinia_jobs),
            policy=RandomOnlinePolicy(11),
            governor=ModelGovernor(predictor, CAP_W),
        )
        ref = reference_execute_online(
            processor,
            _SeededSource(rodinia_jobs, seed=11),
            ModelGovernor(predictor, CAP_W),
        )
        assert_identical(execution, ref)
        assert execution.arrivals == {job.uid: 0.0 for job in rodinia_jobs}

    def test_timeshare_replays_identically(
        self, processor, predictor, rodinia_jobs
    ):
        execution = run(
            processor,
            Scenario.timeshare(rodinia_jobs[:3], rodinia_jobs[3:6]),
            governor=ModelGovernor(predictor, CAP_W),
        )
        ref = reference_execute_default_schedule(
            processor,
            rodinia_jobs[:3],
            rodinia_jobs[3:6],
            ModelGovernor(predictor, CAP_W),
        )
        assert_identical(execution, ref)
        assert execution.backend == "engine.timeshare"


class TestEventDeterminism:
    def test_event_order_is_deterministic_under_a_fixed_seed(
        self, processor, predictor, rodinia_jobs
    ):
        def go():
            return run(
                processor,
                _batch(rodinia_jobs),
                policy=RandomOnlinePolicy(5),
                governor=ModelGovernor(predictor, CAP_W),
                record_events=True,
            )

        a, b = go(), go()
        assert a.events  # start + completion per job at minimum
        assert a.events == b.events
        assert a.events_processed == b.events_processed
        stamps = [e.at_s for e in a.events]
        assert stamps == sorted(stamps)

    def test_different_seeds_can_diverge(self, processor, predictor, rodinia_jobs):
        runs = {
            run(
                processor,
                _batch(rodinia_jobs),
                policy=RandomOnlinePolicy(seed),
                governor=ModelGovernor(predictor, CAP_W),
            ).makespan_s
            for seed in range(4)
        }
        assert len(runs) > 1
