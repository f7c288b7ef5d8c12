"""Tests for the Default baseline's time-shared CPU execution."""

import pytest

from repro.hardware.device import DeviceKind
from repro.engine.sim import Scenario, run
from repro.engine.standalone import standalone_run
from repro.workload.program import Job, ProgramProfile


def _job(name, cpu_s=20.0, gpu_s=8.0, bytes_gb=30.0):
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


class TestTimeshareScenario:
    def test_single_resident_matches_sequential_executor(self, processor):
        ex_default = run(
            processor, Scenario.timeshare([_job("a")], [], cs_overhead=0.0),
            governor=_max_governor(processor),
        )
        ex_seq = run(
            processor, Scenario.from_queues([_job("a")], []),
            governor=_max_governor(processor),
        )
        assert ex_default.makespan_s == pytest.approx(ex_seq.makespan_s)

    def test_two_residents_slower_than_back_to_back_sum(self, processor):
        """Time-sharing with overhead must cost more than running the jobs
        one after the other."""
        jobs = [_job("a"), _job("b")]
        shared = run(
            processor, Scenario.timeshare(jobs, [], cs_overhead=0.1),
            governor=_max_governor(processor),
        )
        seq = run(
            processor, Scenario.from_queues([_job("a"), _job("b")], []),
            governor=_max_governor(processor),
        )
        assert shared.makespan_s > seq.makespan_s

    def test_overhead_is_monotone(self, processor):
        jobs = lambda: [_job("a"), _job("b"), _job("c")]
        low = run(
            processor, Scenario.timeshare(jobs(), [], cs_overhead=0.0),
            governor=_max_governor(processor),
        )
        high = run(
            processor, Scenario.timeshare(jobs(), [], cs_overhead=0.3),
            governor=_max_governor(processor),
        )
        assert high.makespan_s > low.makespan_s

    def test_fair_sharing_of_identical_jobs(self, processor):
        """Two identical residents without overhead finish together at 2x
        their standalone time."""
        jobs = [_job("a"), _job("b")]
        ex = run(
            processor, Scenario.timeshare(jobs, [], cs_overhead=0.0),
            governor=_max_governor(processor),
        )
        alone = standalone_run(jobs[0].profile, processor.cpu, 3.6).time_s
        assert ex.makespan_s == pytest.approx(2 * alone, rel=1e-6)
        finishes = sorted(c.finish_s for c in ex.completions)
        assert finishes[0] == pytest.approx(finishes[1])

    def test_gpu_queue_runs_sequentially(self, processor):
        ex = run(
            processor, Scenario.timeshare([], [_job("g1"), _job("g2")]),
            governor=_max_governor(processor),
        )
        f1 = ex.finish_of("g1")
        f2 = ex.finish_of("g2")
        assert f2 > f1

    def test_all_jobs_complete(self, processor):
        cpu_jobs = [_job(f"c{i}") for i in range(3)]
        gpu_jobs = [_job(f"g{i}") for i in range(2)]
        ex = run(
            processor, Scenario.timeshare(cpu_jobs, gpu_jobs),
            governor=_max_governor(processor),
        )
        assert len(ex.completions) == 5

    def test_duplicate_rejected(self, processor):
        with pytest.raises(ValueError):
            run(
                processor, Scenario.timeshare([_job("a")], [_job("a")]),
                governor=_max_governor(processor),
            )

    def test_negative_overhead_rejected(self, processor):
        with pytest.raises(ValueError):
            run(
                processor,
                Scenario.timeshare([_job("a")], [], cs_overhead=-0.1),
                governor=_max_governor(processor),
            )

    def test_negative_overhead_rejected_at_construction(self):
        with pytest.raises(ValueError, match="non-negative"):
            Scenario.timeshare([_job("a")], [], cs_overhead=-0.1)

    def test_overhead_without_timeshare_rejected(self):
        with pytest.raises(ValueError, match="cpu_timeshare"):
            Scenario(cpu_queue=(_job("a"),), cs_overhead=0.5)
        with pytest.raises(ValueError, match="cpu_timeshare"):
            Scenario.from_queues([_job("a")], [], cs_overhead=0.5)
