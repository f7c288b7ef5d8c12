"""Tests for the brute-force schedule enumerator."""

import math

import pytest

from repro.core.bruteforce import (
    MAX_BRUTE_FORCE_JOBS,
    brute_force_best,
    enumerate_schedules,
)
from repro.core.schedule import predicted_makespan
from repro.workload.generator import random_workload


def _expected_count_no_solo(n):
    """Sum over CPU-subset sizes k of C(n,k) * k! * (n-k)!."""
    return sum(
        math.comb(n, k) * math.factorial(k) * math.factorial(n - k)
        for k in range(n + 1)
    )


class TestEnumerateSchedules:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_count_without_solo(self, n):
        jobs = random_workload(n, seed=1)
        schedules = list(enumerate_schedules(jobs, include_solo=False))
        assert len(schedules) == _expected_count_no_solo(n)
        assert len(set(schedules)) == len(schedules)

    def test_solo_variants_multiply(self):
        jobs = random_workload(2, seed=1)
        with_solo = list(enumerate_schedules(jobs, include_solo=True))
        without = list(enumerate_schedules(jobs, include_solo=False))
        assert len(with_solo) > len(without)

    def test_every_schedule_covers_all_jobs(self):
        jobs = random_workload(3, seed=2)
        for schedule in enumerate_schedules(jobs, include_solo=True):
            assert sorted(schedule.all_uids()) == sorted(j.uid for j in jobs)

    def test_refuses_large_instances(self):
        jobs = random_workload(MAX_BRUTE_FORCE_JOBS + 1, seed=3)
        with pytest.raises(ValueError):
            list(enumerate_schedules(jobs))


class TestBruteForceBest:
    def test_best_is_minimal(self):
        jobs = random_workload(3, seed=4)

        def evaluate(schedule):
            # Deterministic toy objective: prefer balanced queues.
            return abs(len(schedule.cpu_queue) - len(schedule.gpu_queue))

        best_schedule, best_score = brute_force_best(
            jobs, evaluate, include_solo=False
        )
        assert best_score == 1  # 3 jobs can differ by at most one
        assert evaluate(best_schedule) == best_score

    def test_empty_jobs_rejected(self):
        with pytest.raises(ValueError):
            brute_force_best([], lambda s: 0.0)

    @pytest.mark.slow
    def test_hcs_close_to_predicted_optimum(self, processor):
        """On small random instances, HCS's predicted makespan must come
        within 15% of the enumerated predicted optimum."""
        from repro.core.context import SchedulingContext
        from repro.core.freqpolicy import ModelGovernor
        from repro.core.hcs import hcs_schedule
        from repro.model.characterize import characterize_space
        from repro.model.predictor import CoRunPredictor
        from repro.model.profiler import profile_workload

        jobs = random_workload(4, seed=77)
        table = profile_workload(processor, jobs)
        predictor = CoRunPredictor(processor, table, characterize_space(processor))
        governor = ModelGovernor(predictor, 15.0)

        _, best = brute_force_best(
            jobs,
            lambda s: predicted_makespan(s, predictor, governor),
            include_solo=False,
        )
        result = hcs_schedule(
            SchedulingContext(jobs=jobs, cap_w=15.0, predictor=predictor)
        )
        assert result.predicted_makespan_s <= best * 1.15
