"""End-to-end tests for the CoScheduleRuntime facade."""

import pytest

from repro.core.freqpolicy import Bias
from repro.core.runtime import CoScheduleRuntime
from repro.workload.generator import random_workload


@pytest.fixture(scope="module")
def runtime(request):
    from repro.workload.program import make_jobs
    from repro.workload.rodinia import rodinia_programs

    return CoScheduleRuntime(make_jobs(rodinia_programs()), cap_w=15.0)


class TestPolicies:
    def test_hcs_outcome_complete(self, runtime):
        outcome = runtime.run_hcs()
        assert outcome.policy == "hcs"
        assert outcome.makespan_s > 0
        assert len(outcome.execution.completions) == len(runtime.jobs)
        assert outcome.scheduling_time_s > 0

    def test_hcs_plus_policy_name(self, runtime):
        assert runtime.run_hcs(refine=True).policy == "hcs+"

    def test_random_runs_all_jobs(self, runtime):
        outcome = runtime.run_random(seed=7)
        assert len(outcome.execution.completions) == len(runtime.jobs)

    def test_random_is_a_batch_with_every_arrival_at_zero(self, runtime):
        """Random's jobs are all present at time zero, so its total flow is
        the sum of finish times; stamping arrivals at start time reported
        419.6 s here against a true 1064.3 s, and made Random "beat" HCS
        under the flow_time objective."""
        flow = CoScheduleRuntime(
            runtime.jobs, cap_w=15.0, objective="flow_time", space=runtime.space
        )
        execution = flow.run_random(seed=1).execution
        assert execution.arrivals == {job.uid: 0.0 for job in runtime.jobs}
        assert execution.flow_s == sum(c.finish_s for c in execution.completions)
        assert flow.run_hcs().execution.flow_s < execution.flow_s

    def test_random_average_aggregates(self, runtime):
        avg = runtime.random_average(n=3, seed=1)
        assert len(avg.outcomes) == 3
        makespans = [o.makespan_s for o in avg.outcomes]
        assert min(makespans) <= avg.mean_makespan_s <= max(makespans)

    def test_random_average_reproducible(self, runtime):
        a = runtime.random_average(n=3, seed=9).mean_makespan_s
        b = runtime.random_average(n=3, seed=9).mean_makespan_s
        assert a == pytest.approx(b)

    def test_default_variants(self, runtime):
        g = runtime.run_default(bias=Bias.GPU)
        c = runtime.run_default(bias=Bias.CPU)
        assert g.policy == "default_g"
        assert c.policy == "default_c"
        assert len(g.execution.completions) == len(runtime.jobs)

    def test_execute_arbitrary_schedule(self, runtime):
        outcome = runtime.run_hcs()
        replay = runtime.execute(outcome.schedule)
        assert replay.makespan_s == pytest.approx(outcome.makespan_s)

    def test_lower_bound_below_policies(self, runtime):
        bound = runtime.lower_bound_s()
        assert 0 < bound <= runtime.run_hcs(refine=True).makespan_s


class TestConstruction:
    def test_empty_jobs_rejected(self):
        with pytest.raises(ValueError):
            CoScheduleRuntime([])

    def test_random_workload_smoke(self):
        runtime = CoScheduleRuntime(random_workload(4, seed=5), cap_w=15.0)
        hcs = runtime.run_hcs()
        rnd = runtime.run_random(seed=0)
        assert hcs.makespan_s > 0 and rnd.makespan_s > 0

    def test_space_can_be_injected(self, runtime):
        reuse = CoScheduleRuntime(
            runtime.jobs, cap_w=15.0, space=runtime.space
        )
        assert reuse.space is runtime.space


class TestObjectiveLabel:
    """Executions carry the runtime's objective; only the label changes."""

    @pytest.fixture(scope="class")
    def energy(self, runtime):
        return CoScheduleRuntime(
            runtime.jobs, cap_w=15.0, objective="energy", space=runtime.space
        )

    def test_energy_outcomes_are_labelled_and_scored_as_energy(self, energy):
        from repro.engine.sim import Scenario, run

        hcs = energy.run_hcs()
        outcomes = {
            "hcs": hcs,
            "random": energy.run_random(seed=3),
            "default_g": energy.run_default(bias=Bias.GPU),
        }
        for name, outcome in outcomes.items():
            execution = outcome.execution
            assert execution.objective == "energy", name
            # repro: noqa REP003 -- the score IS the measured energy
            assert execution.score() == execution.energy_j, name
        replay = energy.execute(hcs.schedule)
        assert replay.objective == "energy"
        # The makespan is untouched: the same schedule and governor run
        # straight on the processor measure the same bits.
        direct = run(
            energy.processor,
            Scenario.from_schedule(hcs.schedule),
            governor=energy.context().governor,
        )
        assert direct.objective == "makespan"
        # repro: noqa REP003 -- relabelling must not move a single bit
        assert (hcs.makespan_s, replay.energy_j) == (direct.makespan_s, direct.energy_j)

    def test_makespan_runtime_keeps_the_makespan_label(self, runtime):
        execution = runtime.run_hcs().execution
        assert execution.objective == "makespan"
        # repro: noqa REP003 -- the score IS the makespan
        assert execution.score() == execution.makespan_s
