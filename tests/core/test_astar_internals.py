"""White-box tests for the A* scheduler's internals."""

import pytest

from repro.core.astar import AStarScheduler, _Node
from repro.core.context import SchedulingContext
from repro.model.characterize import characterize_space
from repro.model.predictor import CoRunPredictor
from repro.model.profiler import profile_workload
from repro.workload.generator import random_workload


def _ctx(predictor, jobs):
    return SchedulingContext(jobs=jobs, cap_w=15.0, predictor=predictor)


@pytest.fixture(scope="module")
def scheduler(processor):
    jobs = random_workload(3, seed=9)
    table = profile_workload(processor, jobs)
    predictor = CoRunPredictor(processor, table, characterize_space(processor))
    return AStarScheduler(_ctx(predictor, jobs))


def _start_node(scheduler):
    return _Node(
        remaining=frozenset(scheduler.jobs),
        cpu_job=None,
        cpu_frac=0.0,
        gpu_job=None,
        gpu_frac=0.0,
        cpu_closed=False,
        gpu_closed=False,
        elapsed=0.0,
        cpu_order=(),
        gpu_order=(),
    )


class TestHeuristic:
    def test_zero_at_goal(self, scheduler):
        goal = _Node(
            remaining=frozenset(),
            cpu_job=None, cpu_frac=0.0,
            gpu_job=None, gpu_frac=0.0,
            cpu_closed=True, gpu_closed=True,
            elapsed=10.0, cpu_order=(), gpu_order=(),
        )
        assert scheduler._heuristic(goal) == 0.0

    def test_positive_at_start(self, scheduler):
        assert scheduler._heuristic(_start_node(scheduler)) > 0.0

    def test_monotone_in_remaining_set(self, scheduler):
        start = _start_node(scheduler)
        uids = sorted(scheduler.jobs)
        smaller = _Node(
            remaining=frozenset(uids[:1]),
            cpu_job=None, cpu_frac=0.0,
            gpu_job=None, gpu_frac=0.0,
            cpu_closed=False, gpu_closed=False,
            elapsed=0.0, cpu_order=(), gpu_order=(),
        )
        assert scheduler._heuristic(smaller) < scheduler._heuristic(start)

    def test_disabled_heuristic_is_zero(self, processor):
        jobs = random_workload(2, seed=10)
        table = profile_workload(processor, jobs)
        predictor = CoRunPredictor(
            processor, table, characterize_space(processor)
        )
        ucs = AStarScheduler(_ctx(predictor, jobs), use_heuristic=False)
        assert ucs._heuristic(_start_node(ucs)) == 0.0


class TestExpansion:
    def test_successors_cover_all_jobs_plus_close(self, scheduler):
        start = _start_node(scheduler)
        children = list(scheduler._successors(start))
        # One child per remaining job on the CPU side + one 'close CPU'.
        assert len(children) == len(scheduler.jobs) + 1
        placed = {
            c.cpu_order[-1] for c in children if c.cpu_order
        }
        assert placed == set(scheduler.jobs)

    def test_closed_both_with_remaining_is_stuck(self, scheduler):
        node = _Node(
            remaining=frozenset(list(scheduler.jobs)[:1]),
            cpu_job=None, cpu_frac=0.0,
            gpu_job=None, gpu_frac=0.0,
            cpu_closed=True, gpu_closed=True,
            elapsed=0.0, cpu_order=(), gpu_order=(),
        )
        assert scheduler._stuck(node)

    def test_advance_reduces_some_fraction(self, scheduler):
        start = _start_node(scheduler)
        child = next(c for c in scheduler._successors(start) if c.cpu_order)
        # Fill the GPU too, then advance.
        grandchild = next(
            c for c in scheduler._successors(child) if c.gpu_order
        )
        advanced = scheduler._advance(grandchild)
        assert advanced.elapsed > 0.0
        assert advanced.cpu_job is None or advanced.gpu_job is None
