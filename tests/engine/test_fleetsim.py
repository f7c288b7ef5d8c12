"""Fleet execution engine: per-node runs aggregated on the wall clock."""

from __future__ import annotations

import pytest

from repro.core.context import SchedulingContext
from repro.core.fleet import Fleet, Node
from repro.objective import MAKESPAN_ENERGY_RHO
from repro.core.fleetsched import fleet_schedule
from repro.engine import run, run_fleet
from repro.engine.sim import Scenario

CAP_W = 15.0

FLEET = Fleet(
    nodes=(
        Node("big", speed_scale=2.0, power_scale=1.3),
        Node("mid"),
        Node("small", speed_scale=0.6, power_scale=0.5),
    ),
    budget_w=45.0,
)


@pytest.fixture(scope="module")
def fleet_ctx(predictor, rodinia_jobs):
    return SchedulingContext(
        jobs=rodinia_jobs, fleet=FLEET, predictor=predictor, seed=11
    )


class TestRunFleet:
    def test_all_jobs_complete(self, fleet_ctx, rodinia_jobs):
        execution = run_fleet(fleet_ctx, method="hcs")
        completed = sum(
            len(e.result.completions) for e in execution.entries
        )
        assert completed == len(rodinia_jobs)
        assert execution.makespan_s > 0
        assert execution.energy_j > 0

    def test_aggregates_are_max_and_sums(self, fleet_ctx):
        execution = run_fleet(fleet_ctx, method="hcs")
        assert execution.makespan_s == pytest.approx(
            max(e.makespan_s for e in execution.entries)
        )
        assert execution.energy_j == pytest.approx(
            sum(e.energy_j for e in execution.entries)
        )
        assert execution.flow_s == pytest.approx(
            sum(e.flow_s for e in execution.entries)
        )

    def test_wall_conversion_of_node_entries(self, fleet_ctx):
        execution = run_fleet(fleet_ctx, method="hcs")
        for e in execution.entries:
            assert e.makespan_s == pytest.approx(
                e.result.makespan_s / e.speed_scale
            )
            assert e.energy_j == pytest.approx(
                e.result.energy_j * e.power_scale / e.speed_scale
            )

    def test_precomputed_plan_is_honored(self, fleet_ctx):
        plan = fleet_schedule(fleet_ctx, method="hcs")
        execution = run_fleet(fleet_ctx, plan)
        assert execution.plan is plan
        planned_nodes = {a.node for a in plan.assignments}
        assert {e.node for e in execution.entries} == planned_nodes

    def test_trivial_single_node_matches_plain_run(
        self, predictor, rodinia_jobs
    ):
        from repro.core.api import schedule

        planned = schedule(
            rodinia_jobs, method="hcs", cap_w=CAP_W, predictor=predictor
        )
        ctx = SchedulingContext(
            jobs=rodinia_jobs, cap_w=CAP_W, predictor=predictor
        )
        baseline = run(ctx, Scenario.from_schedule(planned.schedule))
        fleet_ctx = SchedulingContext(
            jobs=rodinia_jobs, fleet=Fleet.single(CAP_W), predictor=predictor
        )
        execution = run_fleet(fleet_ctx, method="hcs")
        # repro: noqa REP003 -- byte-identical single-node contract
        assert execution.makespan_s == baseline.makespan_s
        assert execution.energy_j == baseline.energy_j  # repro: noqa REP003 -- byte-identical single-node contract

    def test_score_shapes(self, fleet_ctx):
        execution = run_fleet(fleet_ctx, method="hcs")
        m, e, f = execution.makespan_s, execution.energy_j, execution.flow_s
        assert execution.score("makespan") == pytest.approx(m)
        assert execution.score("energy") == pytest.approx(e)
        assert execution.score("edp") == pytest.approx(e * m)
        assert execution.score("flow_time") == pytest.approx(f)
        rho = MAKESPAN_ENERGY_RHO
        assert execution.score("makespan_energy") == pytest.approx(m + rho * e)
        with pytest.raises(ValueError, match="objective"):
            execution.score("vibes")

    def test_to_dict_round_trips_headline_numbers(self, fleet_ctx):
        execution = run_fleet(fleet_ctx, method="hcs")
        payload = execution.to_dict()
        assert payload["makespan_s"] == execution.makespan_s  # repro: noqa REP003 -- dict round-trip of the same float
        assert payload["budget_w"] == FLEET.budget_w
        assert set(payload["nodes"]) == {e.node for e in execution.entries}
