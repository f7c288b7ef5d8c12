"""Tests for fixed-replay and online execution via ``engine.run()``."""

import pytest

from repro.hardware.device import DeviceKind
from repro.engine.standalone import standalone_run
from repro.engine.sim import Scenario, run
from repro.workload.program import Job, ProgramProfile


def _job(name, cpu_s=20.0, gpu_s=8.0, bytes_gb=40.0):
    return Job(
        uid=name,
        profile=ProgramProfile(
            name=name,
            compute_base_s={DeviceKind.CPU: cpu_s, DeviceKind.GPU: gpu_s},
            bytes_gb=bytes_gb,
            mem_eff={DeviceKind.CPU: 0.8, DeviceKind.GPU: 0.9},
            overlap=0.5,
            sensitivity={DeviceKind.CPU: 1.0, DeviceKind.GPU: 1.0},
        ),
    )


def _max_governor(processor):
    def governor(cpu_job, gpu_job):
        return processor.max_setting
    return governor


class TestQueueReplay:
    def test_empty_schedule(self, processor):
        ex = run(processor, Scenario.from_queues([], []),
                 governor=_max_governor(processor))
        assert ex.makespan_s == 0.0
        assert ex.completions == ()

    def test_single_cpu_job_equals_standalone(self, processor):
        job = _job("a")
        ex = run(processor, Scenario.from_queues([job], []),
                 governor=_max_governor(processor))
        expected = standalone_run(job.profile, processor.cpu, 3.6).time_s
        assert ex.makespan_s == pytest.approx(expected)
        assert ex.completions[0].job == "a"

    def test_solo_tail_equals_standalone(self, processor):
        job = _job("a")
        ex = run(
            processor,
            Scenario.from_queues([], [], solo_tail=[(job, DeviceKind.GPU)]),
            governor=_max_governor(processor),
        )
        expected = standalone_run(job.profile, processor.gpu, 1.25).time_s
        assert ex.makespan_s == pytest.approx(expected)

    def test_solo_tail_runs_after_queues(self, processor):
        queue_job = _job("q")
        solo_job = _job("s")
        ex = run(
            processor,
            Scenario.from_queues(
                [queue_job], [], solo_tail=[(solo_job, DeviceKind.CPU)]
            ),
            governor=_max_governor(processor),
        )
        finish_q = ex.finish_of("q")
        finish_s = ex.finish_of("s")
        assert finish_s > finish_q

    def test_coscheduled_jobs_overlap(self, processor):
        a, b = _job("a"), _job("b")
        ex = run(processor, Scenario.from_queues([a], [b]),
                 governor=_max_governor(processor))
        solo_sum = (
            standalone_run(a.profile, processor.cpu, 3.6).time_s
            + standalone_run(b.profile, processor.gpu, 1.25).time_s
        )
        assert ex.makespan_s < solo_sum

    def test_contention_slows_corun(self, processor):
        a, b = _job("a", bytes_gb=120.0), _job("b", bytes_gb=120.0)
        ex = run(processor, Scenario.from_queues([a], [b]),
                 governor=_max_governor(processor))
        alone_a = standalone_run(a.profile, processor.cpu, 3.6).time_s
        alone_b = standalone_run(b.profile, processor.gpu, 1.25).time_s
        assert ex.makespan_s > max(alone_a, alone_b)

    def test_duplicate_job_rejected(self, processor):
        job = _job("a")
        with pytest.raises(ValueError):
            run(processor, Scenario.from_queues([job], [job]),
                governor=_max_governor(processor))

    def test_busy_accounting(self, processor):
        a, b = _job("a"), _job("b")
        ex = run(processor, Scenario.from_queues([a], [b]),
                 governor=_max_governor(processor))
        assert 0 < ex.cpu_busy_s <= ex.makespan_s + 1e-9
        assert 0 < ex.gpu_busy_s <= ex.makespan_s + 1e-9

    def test_governor_is_consulted_on_pair_changes(self, processor):
        calls = []

        def governor(cpu_job, gpu_job):
            calls.append((cpu_job.uid if cpu_job else None,
                          gpu_job.uid if gpu_job else None))
            return processor.max_setting

        run(
            processor,
            Scenario.from_queues([_job("a"), _job("b")], [_job("c")]),
            governor=governor,
        )
        assert ("a", "c") in calls
        # after c finishes the survivor pair is re-consulted
        assert any(pair[1] is None for pair in calls)

    def test_finish_of_unknown_job_raises(self, processor):
        ex = run(processor, Scenario.from_queues([_job("a")], []),
                 governor=_max_governor(processor))
        with pytest.raises(KeyError):
            ex.finish_of("nope")

    def test_energy_and_mean_power(self, processor):
        ex = run(processor, Scenario.from_queues([_job("a")], []),
                 governor=_max_governor(processor))
        assert ex.energy_j == pytest.approx(ex.mean_power_w * ex.makespan_s)


class _ScriptedPolicy:
    """Policy that plays back a fixed decision list per processor."""

    def __init__(self, cpu_jobs, gpu_jobs):
        self.queues = {DeviceKind.CPU: list(cpu_jobs), DeviceKind.GPU: list(gpu_jobs)}

    def __call__(self, kind, available, other, now):
        queue = self.queues[kind]
        if queue and queue[0] in available:
            return queue.pop(0)
        return None


def _batch(jobs):
    return Scenario.from_arrivals([(job, 0.0) for job in jobs])


class TestOnlinePolicy:
    def test_matches_queue_replay(self, processor):
        a, b = _job("a"), _job("b")
        online = run(
            processor, _batch([a, b]), policy=_ScriptedPolicy([a], [b]),
            governor=_max_governor(processor),
        )
        replay = run(
            processor, Scenario.from_queues([_job("a")], [_job("b")]),
            governor=_max_governor(processor),
        )
        assert online.makespan_s == pytest.approx(replay.makespan_s)

    def test_policy_declining_with_both_idle_is_an_error(self, processor):
        def stubborn(kind, available, other, now):
            return None

        with pytest.raises(RuntimeError, match="declined"):
            run(processor, _batch([_job("a")]), policy=stubborn,
                governor=_max_governor(processor))

    def test_all_jobs_complete(self, processor):
        jobs = [_job(f"j{i}") for i in range(5)]
        ex = run(processor, _batch(jobs), policy=_ScriptedPolicy(jobs[:2], jobs[2:]),
                 governor=_max_governor(processor))
        assert {c.job for c in ex.completions} == {j.uid for j in jobs}

    def test_arrival_scenario_needs_a_job(self, processor):
        with pytest.raises(ValueError, match="at least one arriving job"):
            run(processor, Scenario(), policy=_ScriptedPolicy([], []),
                governor=_max_governor(processor))
