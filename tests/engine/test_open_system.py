"""Tests for open-system (arrival-driven) execution and ``SimCore``."""

import math

import pytest

from repro.hardware.device import DeviceKind
from repro.hardware.frequency import FrequencySetting
from repro.engine.sim import Scenario, SimCore, run
from repro.engine.standalone import standalone_run
from repro.workload.program import Job, ProgramProfile


def _job(name, cpu_s=20.0, gpu_s=8.0):
    return Job(
        uid=name,
        profile=ProgramProfile(
            name=name,
            compute_base_s={DeviceKind.CPU: cpu_s, DeviceKind.GPU: gpu_s},
            bytes_gb=30.0,
            mem_eff={DeviceKind.CPU: 0.8, DeviceKind.GPU: 0.9},
            overlap=0.5,
            sensitivity={DeviceKind.CPU: 1.0, DeviceKind.GPU: 1.0},
        ),
    )


def _gpu_first_policy(kind, available, other, now):
    """Simple deterministic policy: GPU eats the queue, CPU stays idle."""
    return available[0] if kind is DeviceKind.GPU else None


def _any_policy(kind, available, other, now):
    return available[0] if available else None


def _max_governor(processor):
    return lambda c, g: processor.max_setting


class TestArrivalScenarios:
    def test_all_jobs_finish_with_arrival_metadata(self, processor):
        arrivals = [(_job("a"), 0.0), (_job("b"), 5.0)]
        result = run(
            processor, Scenario.from_arrivals(arrivals),
            policy=_any_policy, governor=_max_governor(processor),
        )
        assert len(result.completions) == 2
        assert result.turnaround_s("a") > 0
        assert result.mean_turnaround_s > 0
        assert result.max_turnaround_s >= result.mean_turnaround_s

    def test_job_never_starts_before_arrival(self, processor):
        arrivals = [(_job("late"), 50.0)]
        result = run(
            processor, Scenario.from_arrivals(arrivals),
            policy=_any_policy, governor=_max_governor(processor),
        )
        completion = result.completions[0]
        assert completion.start_s >= 50.0

    def test_idle_gap_jumps_to_next_arrival(self, processor):
        job = _job("solo")
        solo_time = standalone_run(job.profile, processor.cpu, 3.6).time_s
        arrivals = [(job, 100.0)]
        result = run(
            processor, Scenario.from_arrivals(arrivals),
            policy=_any_policy, governor=_max_governor(processor),
        )
        assert result.makespan_s == pytest.approx(100.0 + solo_time, rel=1e-6)
        # Idle time carries no power segments.
        busy = sum(s.duration_s for s in result.segments)
        assert busy == pytest.approx(solo_time, rel=1e-6)

    def test_declining_policy_leaves_cpu_idle(self, processor):
        arrivals = [(_job("a"), 0.0), (_job("b"), 0.0)]
        result = run(
            processor, Scenario.from_arrivals(arrivals),
            policy=_gpu_first_policy, governor=_max_governor(processor),
        )
        kinds = {c.job: c.kind for c in result.completions}
        assert set(kinds.values()) == {"gpu"}

    def test_turnaround_includes_waiting(self, processor):
        # Two jobs arrive together; one must wait for the other under the
        # GPU-only policy.
        arrivals = [(_job("a"), 0.0), (_job("b"), 0.0)]
        result = run(
            processor, Scenario.from_arrivals(arrivals),
            policy=_gpu_first_policy, governor=_max_governor(processor),
        )
        turnarounds = sorted(
            result.turnaround_s(uid) for uid in ("a", "b")
        )
        assert turnarounds[1] > turnarounds[0]

    def test_validation(self, processor):
        with pytest.raises(ValueError):
            run(
            processor, Scenario.from_arrivals([]),
            policy=_any_policy, governor=_max_governor(processor),
        )
        with pytest.raises(ValueError):
            run(
                processor, Scenario.from_arrivals([(_job("a"), -1.0)]),
                policy=_any_policy, governor=_max_governor(processor),
            )
        job = _job("a")
        with pytest.raises(ValueError):
            run(
            processor, Scenario.from_arrivals([(job, 0.0), (job, 1.0)]),
            policy=_any_policy, governor=_max_governor(processor),
        )

    def test_stuck_policy_raises(self, processor):
        def never(kind, available, other, now):
            return None

        with pytest.raises(RuntimeError, match="declined"):
            run(
                processor, Scenario.from_arrivals([(_job("a"), 0.0)]),
                policy=never, governor=_max_governor(processor),
            )

    def test_simultaneous_arrivals_start_as_a_pair(self, processor):
        # Two jobs landing on the same timestamp must both be visible to
        # the policy at that instant — one per device, same start time.
        arrivals = [(_job("a"), 5.0), (_job("b"), 5.0)]
        result = run(
            processor, Scenario.from_arrivals(arrivals),
            policy=_any_policy, governor=_max_governor(processor),
        )
        assert result.starts["a"].start_s == pytest.approx(5.0)
        assert result.starts["b"].start_s == pytest.approx(5.0)
        assert {result.starts["a"].kind, result.starts["b"].kind} == {
            DeviceKind.CPU, DeviceKind.GPU,
        }
        assert result.starts["a"].partner == "b"
        assert result.starts["b"].partner == "a"

    def test_arrival_exactly_at_idle_instant(self, processor):
        # The second job arrives at the precise moment the first finishes
        # and both processors go idle: the time-jump path must admit it at
        # that boundary with no dead time in between.
        first = _job("first")
        solo = run(
            processor, Scenario.from_arrivals([(first, 0.0)]),
            policy=_any_policy, governor=_max_governor(processor),
        )
        t_idle = solo.finish_of("first")
        second = _job("second")
        result = run(
            processor,
            Scenario.from_arrivals([(_job("first"), 0.0), (second, t_idle)]),
            policy=_any_policy,
            governor=_max_governor(processor),
        )
        assert result.starts["second"].start_s == pytest.approx(t_idle)
        assert result.makespan_s == pytest.approx(
            t_idle + (solo.makespan_s - solo.starts["first"].start_s)
        )


class TestSimCoreIncremental:
    """The resumable executor underneath the service session."""

    def test_incremental_arrivals_between_advances(self, processor):
        sim = SimCore(processor, _max_governor(processor))
        sim.add_arrival(_job("a"), 0.0)
        sim.advance(_any_policy, 1.0)
        assert sim.now == pytest.approx(1.0)
        assert DeviceKind.CPU in sim.running or DeviceKind.GPU in sim.running
        # Injecting work mid-flight is the whole point of the simulator.
        sim.add_arrival(_job("b"), 2.0)
        sim.advance(_any_policy)
        assert {c.job for c in sim.completions} == {"a", "b"}
        assert sim.idle

    def test_bounded_advance_lands_exactly_on_the_boundary(self, processor):
        sim = SimCore(processor, _max_governor(processor))
        sim.add_arrival(_job("a"), 0.0)
        sim.advance(_any_policy, math.inf)  # drain
        sim.advance(_any_policy, 500.0)
        assert sim.now == pytest.approx(500.0)
        assert sim.idle

    def test_record_matches_closed_form_execution(self, processor):
        arrivals = [(_job("a"), 0.0), (_job("b"), 3.0)]
        closed = run(
            processor, Scenario.from_arrivals(arrivals),
            policy=_any_policy, governor=_max_governor(processor),
        )
        sim = SimCore(processor, _max_governor(processor))
        for job, at_s in arrivals:
            sim.add_arrival(job, at_s)
        # Stepping in small bounded increments must reproduce the one-shot
        # execution exactly (same events, same power accounting).
        while not sim.idle:
            sim.advance(_any_policy, sim.now + 2.0)
        record = sim.record()
        assert record.makespan_s >= closed.makespan_s  # boundary overshoot
        stepped = {c.job: c.finish_s for c in record.completions}
        oneshot = {c.job: c.finish_s for c in closed.completions}
        assert stepped == pytest.approx(oneshot)
        assert record.cpu_busy_s == pytest.approx(closed.cpu_busy_s)
        assert record.gpu_busy_s == pytest.approx(closed.gpu_busy_s)

    def test_withdraw_pending_and_future(self, processor):
        sim = SimCore(processor, _max_governor(processor))
        sim.add_arrival(_job("now"), 0.0)
        sim.add_arrival(_job("later"), 50.0)
        withdrawn = sim.withdraw("later")
        assert withdrawn.uid == "later"
        assert sim.queued == 1
        with pytest.raises(KeyError):
            sim.withdraw("later")
        sim.advance(_any_policy)
        assert {c.job for c in sim.completions} == {"now"}

    def test_withdraw_started_job_refused(self, processor):
        sim = SimCore(processor, _max_governor(processor))
        sim.add_arrival(_job("a"), 0.0)
        sim.advance(_any_policy, 1.0)
        with pytest.raises(KeyError, match="already started"):
            sim.withdraw("a")

    def test_arrival_in_the_past_rejected(self, processor):
        sim = SimCore(processor, _max_governor(processor))
        sim.add_arrival(_job("a"), 0.0)
        sim.advance(_any_policy, 10.0)
        with pytest.raises(ValueError, match="past"):
            sim.add_arrival(_job("b"), 5.0)

    def test_governor_swap_retunes_the_running_job(self, processor):
        sim = SimCore(processor, _max_governor(processor))
        sim.add_arrival(_job("a"), 0.0)
        sim.advance(_any_policy, 1.0)
        assert sim.current_setting == processor.max_setting
        floor = FrequencySetting(
            processor.cpu.domain.fmin, processor.gpu.domain.fmin
        )
        sim.set_governor(lambda c, g: floor)
        sim.advance(_any_policy, 2.0)
        assert sim.current_setting == floor
