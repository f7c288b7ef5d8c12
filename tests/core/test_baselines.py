"""Tests for the Random and Default baselines."""

import pytest

from repro.hardware.device import DeviceKind
from repro.core.baselines import (
    RandomOnlinePolicy,
    default_partition,
    random_schedule,
)


class TestRandomSchedule:
    def test_covers_all_jobs(self, rodinia_jobs):
        s = random_schedule(rodinia_jobs, seed=1)
        assert sorted(s.all_uids()) == sorted(j.uid for j in rodinia_jobs)

    def test_reproducible(self, rodinia_jobs):
        assert random_schedule(rodinia_jobs, seed=5) == random_schedule(
            rodinia_jobs, seed=5
        )

    def test_solo_prob_one_serializes_everything(self, rodinia_jobs):
        s = random_schedule(rodinia_jobs, seed=2, solo_prob=1.0)
        assert len(s.solo_tail) == len(rodinia_jobs)

    def test_solo_prob_zero_uses_queues_only(self, rodinia_jobs):
        s = random_schedule(rodinia_jobs, seed=2, solo_prob=0.0)
        assert s.solo_tail == ()

    def test_bad_probability_rejected(self, rodinia_jobs):
        with pytest.raises(ValueError):
            random_schedule(rodinia_jobs, solo_prob=1.5)


class TestRandomOnlinePolicy:
    def test_drains_the_pool(self, rodinia_jobs):
        policy = RandomOnlinePolicy(3, idle_prob=0.0)
        pool = list(rodinia_jobs)
        drawn = []
        while pool:
            job = policy(DeviceKind.CPU, pool, None, 0.0)
            assert job is not None
            pool.remove(job)
            drawn.append(job.uid)
        assert sorted(drawn) == sorted(j.uid for j in rodinia_jobs)

    def test_never_declines_when_other_idle(self, rodinia_jobs):
        policy = RandomOnlinePolicy(3, idle_prob=1.0)
        assert policy(DeviceKind.CPU, list(rodinia_jobs), None, 0.0) is not None

    def test_always_declines_at_idle_prob_one_with_other_busy(self, rodinia_jobs):
        policy = RandomOnlinePolicy(3, idle_prob=1.0)
        jobs = list(rodinia_jobs)
        assert policy(DeviceKind.CPU, jobs[1:], jobs[0], 0.0) is None

    def test_empty_pool_returns_none(self):
        assert RandomOnlinePolicy(0)(DeviceKind.CPU, [], None, 0.0) is None

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            RandomOnlinePolicy(0, idle_prob=-0.1)


class TestDefaultPartition:
    def test_partitions_every_job(self, table, rodinia_jobs):
        part = default_partition(table, rodinia_jobs)
        uids = {j.uid for j in part.gpu_partition} | {
            j.uid for j in part.cpu_partition
        }
        assert uids == {j.uid for j in rodinia_jobs}

    def test_dwt2d_lands_on_cpu(self, table, rodinia_jobs):
        """The only CPU-preferred program must end up in the CPU partition
        (it sits at the bottom of the GPU-preference ranking)."""
        part = default_partition(table, rodinia_jobs)
        assert "dwt2d" in {j.uid for j in part.cpu_partition}

    def test_streamcluster_lands_on_gpu(self, table, rodinia_jobs):
        part = default_partition(table, rodinia_jobs)
        assert "streamcluster" in {j.uid for j in part.gpu_partition}

    def test_split_minimizes_longer_partition(self, table, rodinia_jobs):
        """No other split point of the same ranking gives a smaller
        max(sum of partition times)."""
        part = default_partition(table, rodinia_jobs)
        fc = table.processor.cpu.domain.fmax
        fg = table.processor.gpu.domain.fmax
        ranked = list(part.gpu_partition) + list(part.cpu_partition)
        gpu_times = [table.time_s(j.uid, DeviceKind.GPU, fg) for j in ranked]
        cpu_times = [table.time_s(j.uid, DeviceKind.CPU, fc) for j in ranked]
        chosen = max(
            sum(gpu_times[: len(part.gpu_partition)]),
            sum(cpu_times[len(part.gpu_partition):]),
        )
        for k in range(len(ranked) + 1):
            alternative = max(sum(gpu_times[:k]), sum(cpu_times[k:]))
            assert chosen <= alternative + 1e-9

    def test_ranking_monotone_in_preference_ratio(self, table, rodinia_jobs):
        part = default_partition(table, rodinia_jobs)
        fc = table.processor.cpu.domain.fmax
        fg = table.processor.gpu.domain.fmax
        ranked = list(part.gpu_partition) + list(part.cpu_partition)
        ratios = [
            table.time_s(j.uid, DeviceKind.CPU, fc)
            / table.time_s(j.uid, DeviceKind.GPU, fg)
            for j in ranked
        ]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))
