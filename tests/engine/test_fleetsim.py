"""Fleet execution engine: per-node cores, wall clock, cross-node migration."""

from __future__ import annotations

import math

import pytest

from repro.core.context import SchedulingContext
from repro.core.fleet import Fleet, Node
from repro.objective import MAKESPAN_ENERGY_RHO
from repro.core.fleetsched import fleet_schedule
from repro.engine import FleetSim, run, run_fleet
from repro.engine.sim import PenaltyModel, Scenario

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


class TestFleetSim:
    def test_live_fixed_replay_matches_run_fleet(self, fleet_ctx):
        plan = fleet_schedule(fleet_ctx, method="hcs")
        batch = run_fleet(fleet_ctx, plan)

        fsim = FleetSim(fleet_ctx)
        for a in plan.assignments:
            fsim.load_schedule(a.node, a.schedule)
        fsim.advance_to(math.inf)
        live = fsim.record()
        assert fsim.idle
        # repro: noqa REP003 -- same engine, same plan, same numbers
        assert live.makespan_s == batch.makespan_s

    def test_wall_clock_conversion(self, fleet_ctx):
        fsim = FleetSim(fleet_ctx)
        job = fleet_ctx.jobs[0]
        fsim.add_arrival("big", job, at_s=4.0)
        # Native arrival on the 2x node is 8 native seconds.
        assert fsim.core("big").arrivals[job.uid] == pytest.approx(8.0)
        assert fsim.wall_now("big") == 0.0

    def test_unknown_node_rejected(self, fleet_ctx):
        fsim = FleetSim(fleet_ctx)
        with pytest.raises(KeyError, match="ghost"):
            fsim.core("ghost")

    def test_advance_without_policy_raises_when_loaded(self, fleet_ctx):
        fsim = FleetSim(fleet_ctx)
        fsim.add_arrival("mid", fleet_ctx.jobs[0], at_s=0.0)
        with pytest.raises(ValueError, match="policy"):
            fsim.advance_to(10.0)

    def test_context_without_fleet_rejected(self, predictor, rodinia_jobs):
        class Bare:
            fleet = None

        with pytest.raises(TypeError, match="fleet"):
            FleetSim(Bare())


class TestCrossNodeMigration:
    def test_migration_pays_the_penalty_and_completes(self, fleet_ctx):
        penalties = PenaltyModel(
            checkpoint_s=0.1, restart_s=0.1, migrate_s=0.5
        )
        plan = fleet_schedule(fleet_ctx, method="hcs")

        fsim = FleetSim(fleet_ctx, penalties=penalties)
        for a in plan.assignments:
            fsim.load_schedule(a.node, a.schedule)
        fsim.advance_to(1.0)
        src = fsim.core("big")
        assert src.running, "expected the big node busy at wall t=1"
        kind, victim = next(iter(src.running.items()))
        src.preempt(kind)
        fsim.migrate_job(victim.uid, "big", "mid")
        fsim.advance_to(math.inf)

        record = fsim.record()
        total = sum(len(e.result.completions) for e in record.entries)
        assert total == len(fleet_ctx.jobs)
        mid = record.node_result("mid")
        assert victim.uid in {c.job for c in mid.completions}
        # The preemption record stays in the source core's log; the
        # destination fills in the resume fields when it places the job.
        moved = [
            p
            for p in record.node_result("big").preemptions
            if p.job == victim.uid
        ]
        assert moved and moved[-1].migrated
        assert moved[-1].penalty_s >= penalties.migrate_s

    def test_same_node_migration_rejected(self, fleet_ctx):
        fsim = FleetSim(fleet_ctx)
        with pytest.raises(ValueError, match="same"):
            fsim.migrate_job("x", "big", "big")
