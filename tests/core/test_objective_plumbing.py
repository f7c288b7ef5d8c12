"""End-to-end objective plumbing through the unified scheduler entry point.

Satellite coverage for the SchedulingContext refactor:

* every registry method accepts ``objective=`` (enum or string) and
  returns a complete, cap-feasible schedule;
* ``ExecutionResult.score`` EDP math;
* energy-objective schedules spend no more energy than the
  makespan-objective schedule on the seed workload;
* the refactor is behavior-preserving: under the default (makespan)
  objective the facade reproduces the legacy per-method entry points
  exactly.
"""

import pytest

from repro.core.api import schedule, scheduler_names
from repro.core.baselines import default_partition, random_schedule
from repro.core.context import SchedulingContext
from repro.core.feasibility import predicted_power
from repro.core.hcs import hcs_schedule
from repro.objective import Objective
from repro.core.runtime import CoScheduleRuntime
from repro.core.schedule import CoSchedule

CAP_W = 15.0
OBJECTIVES = ("makespan", "energy", "edp")
#: Exhaustive/search methods get a small instance so brute stays in budget.
SMALL_METHODS = ("brute", "astar")


@pytest.fixture(scope="module")
def runtime(rodinia_jobs):
    return CoScheduleRuntime(rodinia_jobs, cap_w=CAP_W)


def _uids(sched: CoSchedule):
    return sorted(
        [j.uid for j in sched.cpu_queue]
        + [j.uid for j in sched.gpu_queue]
        + [j.uid for j, _ in sched.solo_tail]
    )


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("method", scheduler_names())
class TestEveryMethodEveryObjective:
    def test_complete_and_cap_feasible(
        self, method, objective, runtime, rodinia_jobs
    ):
        jobs = (
            rodinia_jobs[:5] if method in SMALL_METHODS else rodinia_jobs
        )
        result = schedule(
            jobs,
            method=method,
            cap_w=CAP_W,
            objective=objective,
            predictor=runtime.predictor,
            seed=11,
        )
        assert result.objective is Objective.coerce(objective)
        assert _uids(result.schedule) == sorted(j.uid for j in jobs)
        assert result.predicted_makespan_s > 0.0
        assert result.predicted_score > 0.0
        if objective == "makespan":
            # repro: noqa REP003 -- identity contract: score IS the makespan
            assert result.predicted_score == result.predicted_makespan_s
        # The governor the schedule was scored under respects the cap for
        # the head co-run pair (the setting every queue starts at).
        sched = result.schedule
        if sched.cpu_queue and sched.gpu_queue:
            head_c, head_g = sched.cpu_queue[0], sched.gpu_queue[0]
            setting = result.governor(head_c, head_g)
            assert (
                predicted_power(
                    runtime.predictor, head_c.uid, head_g.uid, setting
                )
                <= CAP_W + 1e-9
            )


class TestScoreExecutionMath:
    def test_edp_is_energy_times_makespan(self, runtime):
        sched = hcs_schedule(runtime.context()).schedule
        execution = runtime.execute(sched)
        assert execution.score("edp") == pytest.approx(
            execution.energy_j * execution.makespan_s
        )
        assert execution.score(Objective.EDP) == pytest.approx(
            execution.edp_js
        )

    def test_string_and_enum_agree(self, runtime):
        sched = hcs_schedule(runtime.context()).schedule
        execution = runtime.execute(sched)
        for objective in Objective:
            assert execution.score(objective) == execution.score(objective.value)

    def test_unknown_objective_rejected(self, runtime):
        sched = hcs_schedule(runtime.context()).schedule
        execution = runtime.execute(sched)
        with pytest.raises(ValueError):
            execution.score("latency")


class TestEnergyObjectiveSavesEnergy:
    @pytest.mark.parametrize("method", ("hcs", "hcs+"))
    def test_energy_schedule_spends_no_more_energy(
        self, method, runtime, rodinia_jobs
    ):
        by_objective = {}
        for objective in ("makespan", "energy"):
            result = schedule(
                rodinia_jobs,
                method=method,
                cap_w=CAP_W,
                objective=objective,
                predictor=runtime.predictor,
                seed=0,
            )
            execution = runtime.execute(result.schedule, result.governor)
            by_objective[objective] = execution
        assert (
            by_objective["energy"].energy_j
            <= by_objective["makespan"].energy_j
        )
        # ... by running slower: the cap fixes peak power, so saving
        # energy must come from lower average power, not shorter runs.
        assert (
            by_objective["energy"].makespan_s
            >= by_objective["makespan"].makespan_s
        )


class TestMakespanBehaviorPreserved:
    """Under the default objective the facade must reproduce the legacy
    per-method entry points schedule-for-schedule."""

    def _facade(self, method, jobs, runtime, **opts):
        return schedule(
            jobs,
            method=method,
            cap_w=CAP_W,
            predictor=runtime.predictor,
            **opts,
        ).schedule

    def test_hcs_matches_legacy(self, runtime, rodinia_jobs):
        legacy = hcs_schedule(
            SchedulingContext(
                jobs=rodinia_jobs, cap_w=CAP_W, predictor=runtime.predictor
            )
        ).schedule
        assert self._facade("hcs", rodinia_jobs, runtime) == legacy

    def test_hcs_plus_matches_legacy(self, runtime, rodinia_jobs):
        legacy = hcs_schedule(
            SchedulingContext(
                jobs=rodinia_jobs,
                cap_w=CAP_W,
                predictor=runtime.predictor,
                seed=5,
            ),
            refine=True,
        ).schedule
        assert self._facade("hcs+", rodinia_jobs, runtime, seed=5) == legacy

    def test_random_matches_legacy(self, runtime, rodinia_jobs):
        legacy = random_schedule(rodinia_jobs, seed=5)
        assert self._facade("random", rodinia_jobs, runtime, seed=5) == legacy

    def test_default_matches_legacy(self, runtime, rodinia_jobs):
        part = default_partition(runtime.table, rodinia_jobs)
        sched = self._facade("default", rodinia_jobs, runtime)
        assert sched.cpu_queue == part.cpu_partition
        assert sched.gpu_queue == part.gpu_partition

    def test_explicit_makespan_is_the_default(self, runtime, rodinia_jobs):
        explicit = schedule(
            rodinia_jobs,
            method="hcs+",
            cap_w=CAP_W,
            objective=Objective.MAKESPAN,
            predictor=runtime.predictor,
            seed=5,
        )
        default = schedule(
            rodinia_jobs,
            method="hcs+",
            cap_w=CAP_W,
            predictor=runtime.predictor,
            seed=5,
        )
        assert explicit.schedule == default.schedule
        # repro: noqa REP003 -- byte-identical default-objective contract
        assert explicit.predicted_makespan_s == default.predicted_makespan_s
