"""Tests for the Section IV-B lower bound."""

import pytest

from repro.core.bounds import lower_bound
from repro.core.bruteforce import brute_force_best
from repro.core.context import SchedulingContext
from repro.core.freqpolicy import ModelGovernor
from repro.core.hcs import hcs_schedule
from repro.engine.sim import Scenario, run
from repro.model.characterize import characterize_space
from repro.model.predictor import CoRunPredictor, OracleDegradations
from repro.model.profiler import profile_workload
from repro.workload.generator import random_workload


class TestLowerBoundStructure:
    def test_positive_and_below_hcs(self, predictor, rodinia_jobs):
        bound, details = lower_bound(predictor, rodinia_jobs, 15.0)
        assert bound > 0.0
        assert len(details) == len(rodinia_jobs)
        result = hcs_schedule(
            SchedulingContext(jobs=rodinia_jobs, cap_w=15.0, predictor=predictor)
        )
        assert bound <= result.predicted_makespan_s

    def test_contributions_capped_by_double_solo(self, predictor, rodinia_jobs):
        _, details = lower_bound(predictor, rodinia_jobs, 15.0)
        for d in details:
            assert d.contribution_s <= 2.0 * d.best_solo_s + 1e-9
            assert d.contribution_s <= d.best_corun_s + 1e-9

    def test_bound_halves_the_contribution_sum(self, predictor, rodinia_jobs):
        bound, details = lower_bound(predictor, rodinia_jobs, 15.0)
        assert bound == pytest.approx(0.5 * sum(d.contribution_s for d in details))

    def test_scaling_workload_scales_bound(self, predictor, rodinia_jobs):
        full, _ = lower_bound(predictor, rodinia_jobs, 15.0)
        half, _ = lower_bound(predictor, rodinia_jobs[:4], 15.0)
        assert half < full


class TestLowerBoundValidity:
    @pytest.mark.slow
    def test_bound_below_brute_force_optimum(self, processor):
        """With ground-truth degradations, T_low must not exceed the best
        makespan any enumerated schedule achieves."""
        jobs = random_workload(4, seed=123)
        table = profile_workload(processor, jobs)
        predictor = CoRunPredictor(processor, table, characterize_space(processor))
        oracle = OracleDegradations(processor, table)
        governor = ModelGovernor(predictor, 15.0)

        def evaluate(schedule):
            return run(
                processor,
                Scenario.from_queues(
                    schedule.cpu_queue,
                    schedule.gpu_queue,
                    solo_tail=schedule.solo_tail,
                ),
                governor=governor,
            ).makespan_s

        _, best = brute_force_best(jobs, evaluate, include_solo=False)
        bound, _ = lower_bound(predictor, jobs, 15.0, deg_source=oracle)
        assert bound <= best * (1.0 + 1e-6)

    def test_bound_below_every_policy(self, predictor, rodinia_jobs):
        from repro.core.runtime import CoScheduleRuntime

        runtime = CoScheduleRuntime(rodinia_jobs, cap_w=15.0)
        bound = runtime.lower_bound_s()
        assert bound <= runtime.run_hcs(refine=True).makespan_s
        assert bound <= runtime.run_random(seed=1).makespan_s
        assert bound <= runtime.run_default().makespan_s
