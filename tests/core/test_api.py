"""The unified ``schedule()`` entry point and the scheduler registry."""

from __future__ import annotations

import math

import pytest

import repro
from repro.core.api import (
    ScheduleResult,
    _REGISTRY,
    register_scheduler,
    schedule,
    scheduler_names,
)
from repro.core.context import SchedulingContext
from repro.core.hcs import HcsResult, hcs_schedule
from repro.core.schedule import CoSchedule
from repro.errors import InfeasibleCapError

CAP_W = 15.0


class TestRegistry:
    def test_builtin_methods(self):
        assert set(scheduler_names()) == {
            "astar", "brute", "default", "genetic", "hcs", "hcs+",
            "portfolio", "random",
        }

    def test_unknown_method(self, predictor, rodinia_jobs):
        with pytest.raises(ValueError, match="unknown scheduler"):
            schedule(rodinia_jobs, "simulated-annealing", cap_w=CAP_W,
                     predictor=predictor)

    def test_empty_jobs(self, predictor):
        with pytest.raises(ValueError):
            schedule([], "hcs", cap_w=CAP_W, predictor=predictor)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheduler("hcs")(lambda ctx: None)

    def test_custom_scheduler_plugs_in(self, predictor, rodinia_jobs):
        @register_scheduler("first-come")
        def _fcfs(ctx):
            sched = CoSchedule(cpu_queue=ctx.jobs, gpu_queue=())
            return ScheduleResult(
                method="first-come",
                schedule=sched,
                predicted_makespan_s=ctx.evaluator(sched),
            )

        try:
            result = schedule(
                rodinia_jobs, "first-come", cap_w=CAP_W, predictor=predictor
            )
            assert result.schedule.cpu_queue == tuple(rodinia_jobs)
            assert result.predicted_makespan_s > 0
            assert result.cache_stats is not None
        finally:
            _REGISTRY.pop("first-come")

    def test_top_level_reexports(self):
        assert repro.schedule is schedule
        assert repro.scheduler_names is scheduler_names
        assert repro.ScheduleResult is ScheduleResult


class TestUniformSurface:
    def test_hcs_matches_native_call(self, predictor, rodinia_jobs):
        native = hcs_schedule(
            SchedulingContext(jobs=rodinia_jobs, cap_w=CAP_W, predictor=predictor)
        )
        unified = schedule(rodinia_jobs, "hcs", cap_w=CAP_W, predictor=predictor)
        assert unified.schedule == native.schedule
        # repro: noqa REP003 -- byte-identical facade/native contract, not a tolerance check
        assert unified.predicted_makespan_s == native.predicted_makespan_s
        assert isinstance(unified.details["hcs"], HcsResult)

    def test_hcs_plus_refines(self, predictor, rodinia_jobs):
        plain = schedule(rodinia_jobs, "hcs", cap_w=CAP_W, predictor=predictor)
        plus = schedule(
            rodinia_jobs, "hcs+", cap_w=CAP_W, predictor=predictor, seed=0
        )
        assert plus.predicted_makespan_s <= plain.predicted_makespan_s

    def test_random_is_seeded(self, predictor, rodinia_jobs):
        a = schedule(rodinia_jobs, "random", cap_w=CAP_W, predictor=predictor,
                     seed=42)
        b = schedule(rodinia_jobs, "random", cap_w=CAP_W, predictor=predictor,
                     seed=42)
        assert a.schedule == b.schedule

    def test_brute_equals_astar_on_small_instance(self, predictor, rodinia_jobs):
        jobs = rodinia_jobs[:4]
        brute = schedule(jobs, "brute", cap_w=CAP_W, predictor=predictor)
        astar = schedule(jobs, "astar", cap_w=CAP_W, predictor=predictor)
        assert brute.predicted_makespan_s == pytest.approx(
            astar.predicted_makespan_s
        )
        assert astar.details["nodes_expanded"] > 0

    def test_genetic_with_options(self, predictor, rodinia_jobs):
        from repro.core.genetic import GaConfig

        result = schedule(
            rodinia_jobs[:5],
            "genetic",
            cap_w=CAP_W,
            predictor=predictor,
            seed=1,
            config=GaConfig(population=8, generations=2),
        )
        assert result.method == "genetic"
        assert result.predicted_makespan_s > 0

    def test_method_specific_option_rejected_elsewhere(
        self, predictor, rodinia_jobs
    ):
        with pytest.raises(TypeError):
            schedule(rodinia_jobs, "hcs", cap_w=CAP_W, predictor=predictor,
                     node_budget=10)

    def test_builds_predictor_when_missing(self, rodinia_jobs):
        result = schedule(rodinia_jobs[:3], "hcs", cap_w=CAP_W)
        assert result.predicted_makespan_s > 0

    def test_cache_shared_across_calls(self, predictor, rodinia_jobs):
        from repro.perf.cache import EvalCache

        cache = EvalCache()
        schedule(rodinia_jobs, "hcs", cap_w=CAP_W, predictor=predictor,
                 cache=cache)
        cold = cache.stats.misses
        schedule(rodinia_jobs, "hcs", cap_w=CAP_W, predictor=predictor,
                 cache=cache)
        warm_new_misses = cache.stats.misses - cold
        assert warm_new_misses == 0  # second run fully served from cache
        assert cache.stats.hits > 0


class TestInfeasibleCap:
    def test_error_type_compat(self):
        # Callers historically caught RuntimeError (governors) or ValueError
        # (predictor feasibility); the dedicated error satisfies both.
        assert issubclass(InfeasibleCapError, RuntimeError)
        assert issubclass(InfeasibleCapError, ValueError)

    def test_best_solo_raises_with_context(self, predictor, rodinia_jobs):
        from repro.hardware.device import DeviceKind

        uid = rodinia_jobs[0].uid
        with pytest.raises(InfeasibleCapError) as excinfo:
            predictor.best_solo(uid, DeviceKind.CPU, 0.1)
        assert excinfo.value.cap_w == 0.1
        assert "0.1" in str(excinfo.value)

    def test_schedule_surfaces_infeasible_cap(self, predictor, rodinia_jobs):
        with pytest.raises(InfeasibleCapError):
            schedule(rodinia_jobs, "hcs", cap_w=0.1, predictor=predictor)

    def test_schedule_rejects_nan_cap(self, predictor, rodinia_jobs):
        # A NaN cap is bad input, not a cap no job fits under.
        with pytest.raises(ValueError, match="cap_w must be finite and positive") as exc:
            schedule(rodinia_jobs, "hcs", cap_w=math.nan, predictor=predictor)
        assert not isinstance(exc.value, InfeasibleCapError)
