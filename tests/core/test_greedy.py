"""Tests for Step 3 (greedy minimum-interference pairing)."""

import pytest

from repro.hardware.device import DeviceKind
from repro.core.categorize import categorize_jobs
from repro.core.context import SchedulingContext
from repro.core.freqpolicy import ModelGovernor
from repro.core.greedy import greedy_schedule, pairing_source


@pytest.fixture
def categorized(predictor, rodinia_jobs):
    return categorize_jobs(predictor, rodinia_jobs, 15.0)


@pytest.fixture
def source(predictor, rodinia_jobs):
    ctx = SchedulingContext(jobs=rodinia_jobs, cap_w=15.0, predictor=predictor)
    return pairing_source(ctx, ModelGovernor(predictor, 15.0))


class TestGreedySchedule:
    def test_every_job_scheduled_exactly_once(
        self, predictor, categorized, source, rodinia_jobs
    ):
        cpu, gpu = greedy_schedule(source, categorized)
        scheduled = [j.uid for j in cpu] + [j.uid for j in gpu]
        assert sorted(scheduled) == sorted(j.uid for j in rodinia_jobs)

    def test_bootstrap_gpu_job_is_longest_gpu_preferred(
        self, predictor, categorized, source
    ):
        _, gpu = greedy_schedule(source, categorized)
        first = gpu[0]
        t_first = predictor.best_solo(first.uid, DeviceKind.GPU, 15.0)[1]
        for job in categorized.gpu_preferred:
            assert t_first >= predictor.best_solo(job.uid, DeviceKind.GPU, 15.0)[1] - 1e-9

    def test_cpu_preferred_jobs_stay_on_cpu(
        self, predictor, categorized, source
    ):
        cpu, gpu = greedy_schedule(source, categorized)
        gpu_uids = {j.uid for j in gpu}
        for job in categorized.cpu_preferred:
            assert job.uid not in gpu_uids

    def test_steal_guard_blocks_hopeless_migrations(
        self, predictor, categorized, source
    ):
        """streamcluster is 3.6x slower on the capped CPU; with the small
        CPU-side workload of this job set, stealing it can never pay off."""
        cpu, _ = greedy_schedule(source, categorized)
        assert "streamcluster" not in {j.uid for j in cpu}

    def test_cpu_side_not_overloaded(self, predictor, categorized, source):
        """The guard keeps the CPU queue's total time within sight of the
        GPU queue's — the failure mode it exists to prevent is a CPU queue
        several times longer than the GPU one."""
        cpu, gpu = greedy_schedule(source, categorized)
        cpu_total = sum(
            predictor.best_solo(j.uid, DeviceKind.CPU, 15.0)[1] for j in cpu
        )
        gpu_total = sum(
            predictor.best_solo(j.uid, DeviceKind.GPU, 15.0)[1] for j in gpu
        )
        assert cpu_total <= 1.5 * gpu_total

    def test_empty_categorization(self, source):
        from repro.core.categorize import Categorized

        empty = Categorized((), (), ())
        cpu, gpu = greedy_schedule(source, empty)
        assert cpu == [] and gpu == []
