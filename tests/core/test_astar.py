"""Tests for the A*-search co-scheduler."""

import pytest

from repro.core.astar import AStarScheduler, astar_schedule
from repro.core.context import SchedulingContext
from repro.core.bruteforce import brute_force_best
from repro.core.freqpolicy import ModelGovernor
from repro.core.hcs import hcs_schedule
from repro.core.schedule import predicted_makespan
from repro.model.characterize import characterize_space
from repro.model.predictor import CoRunPredictor
from repro.model.profiler import profile_workload
from repro.workload.generator import random_workload


def _ctx(predictor, jobs):
    return SchedulingContext(jobs=jobs, cap_w=15.0, predictor=predictor)


@pytest.fixture(scope="module")
def small_env(processor):
    jobs = random_workload(4, seed=42)
    table = profile_workload(processor, jobs)
    predictor = CoRunPredictor(processor, table, characterize_space(processor))
    return jobs, predictor


class TestAStarCorrectness:
    def test_schedules_every_job(self, small_env):
        jobs, predictor = small_env
        schedule, makespan, expanded = astar_schedule(_ctx(predictor, jobs))
        assert sorted(schedule.all_uids()) == sorted(j.uid for j in jobs)
        assert makespan > 0
        assert expanded > 0

    def test_reported_makespan_matches_replay(self, small_env):
        jobs, predictor = small_env
        schedule, makespan, _ = astar_schedule(_ctx(predictor, jobs))
        governor = ModelGovernor(predictor, 15.0)
        assert predicted_makespan(schedule, predictor, governor) == pytest.approx(
            makespan, rel=1e-6
        )

    @pytest.mark.slow
    def test_uniform_cost_matches_brute_force(self, small_env):
        """With h = 0 the search is exhaustive uniform-cost search and must
        equal the enumerated optimum under the same predicted model."""
        jobs, predictor = small_env
        governor = ModelGovernor(predictor, 15.0)
        _, best = brute_force_best(
            jobs,
            lambda s: predicted_makespan(s, predictor, governor),
            include_solo=False,
        )
        _, makespan, _ = astar_schedule(
            _ctx(predictor, jobs), use_heuristic=False
        )
        assert makespan <= best + 1e-6

    def test_heuristic_matches_uniform_cost(self, small_env):
        """The default heuristic must not cost optimality on small cases."""
        jobs, predictor = small_env
        _, with_h, exp_h = astar_schedule(_ctx(predictor, jobs))
        _, without_h, exp_0 = astar_schedule(
            _ctx(predictor, jobs), use_heuristic=False
        )
        assert with_h == pytest.approx(without_h, rel=0.02)
        assert exp_h <= exp_0  # the heuristic exists to prune

    def test_at_least_as_good_as_hcs(self, small_env):
        jobs, predictor = small_env
        hcs = hcs_schedule(_ctx(predictor, jobs))
        _, astar_makespan, _ = astar_schedule(_ctx(predictor, jobs))
        assert astar_makespan <= hcs.predicted_makespan_s + 1e-6


class TestAStarRobustness:
    def test_single_job(self, small_env):
        jobs, predictor = small_env
        schedule, makespan, _ = astar_schedule(_ctx(predictor, jobs[:1]))
        assert schedule.n_jobs == 1
        assert makespan > 0

    def test_empty_jobs_rejected(self, small_env):
        _, predictor = small_env
        with pytest.raises(ValueError):
            AStarScheduler(_ctx(predictor, []))

    def test_duplicate_uids_rejected(self, small_env):
        jobs, predictor = small_env
        with pytest.raises(ValueError):
            AStarScheduler(_ctx(predictor, [jobs[0], jobs[0]]))

    def test_tiny_budget_still_returns_a_schedule(self, small_env):
        jobs, predictor = small_env
        schedule, makespan, _ = astar_schedule(
            _ctx(predictor, jobs), node_budget=1_000_000
        )
        assert schedule.n_jobs == len(jobs)
