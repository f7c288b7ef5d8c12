"""The fleet scheduling driver: placement, per-node scheduling, aggregation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.invariants import SANITIZE_ENV
from repro.core.context import SchedulingContext
from repro.core.fleet import Fleet, Node
from repro.core.fleetsched import fleet_schedule, place_jobs
from repro.objective import MAKESPAN_ENERGY_RHO, Objective
from repro.errors import InfeasibleCapError

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


class TestPlacement:
    def test_partition_is_exact(self, fleet_ctx, rodinia_jobs):
        buckets = place_jobs(fleet_ctx)
        assert len(buckets) == len(FLEET)
        placed = [j.uid for bucket in buckets for j in bucket]
        assert sorted(placed) == sorted(j.uid for j in rodinia_jobs)

    def test_fast_node_attracts_more_work(self, fleet_ctx):
        buckets = place_jobs(fleet_ctx)
        # The 2x node must receive at least as many jobs as the 0.6x node.
        assert len(buckets[0]) >= len(buckets[2])

    def test_placement_is_deterministic(self, fleet_ctx):
        a = place_jobs(fleet_ctx)
        b = place_jobs(fleet_ctx)
        assert [[j.uid for j in bucket] for bucket in a] == (
            [[j.uid for j in bucket] for bucket in b]
        )

    def test_impossible_job_raises_infeasible(self, predictor, rodinia_jobs):
        ctx = SchedulingContext(
            jobs=rodinia_jobs,
            fleet=Fleet.uniform(2, budget_w=2.0),
            predictor=predictor,
        )
        with pytest.raises(InfeasibleCapError):
            place_jobs(ctx)


class TestFleetSchedule:
    def test_every_job_scheduled_once(self, fleet_ctx, rodinia_jobs):
        result = fleet_schedule(fleet_ctx, method="hcs")
        scheduled = [
            j.uid for a in result.assignments for j in a.jobs
        ]
        assert sorted(scheduled) == sorted(j.uid for j in rodinia_jobs)
        assert set(result.idle_nodes).isdisjoint(
            a.node for a in result.assignments
        )

    def test_makespan_is_max_energy_is_sum(self, fleet_ctx):
        result = fleet_schedule(fleet_ctx, method="hcs")
        assert result.predicted_makespan_s == pytest.approx(
            max(a.metrics.makespan_s for a in result.assignments)
        )
        assert result.predicted_energy_j == pytest.approx(
            sum(a.metrics.energy_j for a in result.assignments)
        )

    @pytest.mark.parametrize("objective", [o for o in Objective])
    def test_score_matches_objective(
        self, predictor, rodinia_jobs, objective
    ):
        ctx = SchedulingContext(
            jobs=rodinia_jobs,
            fleet=FLEET,
            predictor=predictor,
            objective=objective,
            seed=2,
        )
        result = fleet_schedule(ctx, method="hcs+")
        m, e, f = (
            result.predicted_makespan_s,
            result.predicted_energy_j,
            result.predicted_flow_s,
        )
        expected = {
            Objective.MAKESPAN: m,
            Objective.ENERGY: e,
            Objective.EDP: e * m,
            Objective.FLOW_TIME: f,
            Objective.MAKESPAN_ENERGY: m + MAKESPAN_ENERGY_RHO * e,
        }[objective]
        assert result.predicted_score == pytest.approx(expected)

    def test_single_node_fleet_works(self, predictor, rodinia_jobs):
        ctx = SchedulingContext(
            jobs=rodinia_jobs, fleet=Fleet.single(CAP_W), predictor=predictor
        )
        result = fleet_schedule(ctx, method="hcs")
        assert len(result.assignments) == 1
        assert result.assignments[0].node == "node0"

    def test_unknown_method_rejected(self, fleet_ctx):
        with pytest.raises(ValueError, match="unknown scheduler"):
            fleet_schedule(fleet_ctx, method="quantum")

    def test_sanitizer_referees_the_result(
        self, monkeypatch, predictor, rodinia_jobs
    ):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        ctx = SchedulingContext(
            jobs=rodinia_jobs, fleet=FLEET, predictor=predictor, seed=4
        )
        result = fleet_schedule(ctx, method="hcs+")
        assert result.predicted_makespan_s > 0

    def test_lookup_by_node_name(self, fleet_ctx):
        result = fleet_schedule(fleet_ctx, method="hcs")
        first = result.assignments[0]
        assert result.assignment(first.node) is first
        with pytest.raises(KeyError):
            result.assignment("ghost")


class TestFleetInvariantVerifier:
    def test_clean_result_has_no_violations(self, fleet_ctx):
        from repro.analysis.invariants import verify_fleet_schedule

        result = fleet_schedule(fleet_ctx, method="hcs")
        assert verify_fleet_schedule(fleet_ctx, result) == []

    def test_duplicated_job_caught_as_partition_violation(self, fleet_ctx):
        from repro.analysis.invariants import (
            INVARIANT_FLEET_PARTITION,
            verify_fleet_schedule,
        )

        result = fleet_schedule(fleet_ctx, method="hcs")
        donor = next(a for a in result.assignments if len(a.jobs) >= 1)
        other = next(a for a in result.assignments if a is not donor)
        dup = donor.jobs[0]
        rigged = dataclasses.replace(
            result,
            assignments=tuple(
                dataclasses.replace(a, jobs=a.jobs + (dup,))
                if a is other
                else a
                for a in result.assignments
            ),
        )
        violations = verify_fleet_schedule(fleet_ctx, rigged)
        assert any(
            v.invariant == INVARIANT_FLEET_PARTITION for v in violations
        )

    def test_budget_violation_caught(self, predictor, rodinia_jobs):
        """Negative case: per-node caps fine, fleet budget exceeded.

        The schedule is produced under a generous budget, then re-verified
        against a context whose budget is far below the fleet's concurrent
        draw while each node's share is left high enough that no single
        node trips its own cap.
        """
        from repro.analysis.invariants import (
            INVARIANT_FLEET_BUDGET,
            verify_fleet_schedule,
        )

        loose = Fleet(
            nodes=(
                Node("a", cap_w=18.0),
                Node("b", cap_w=18.0),
            ),
        )
        ctx = SchedulingContext(
            jobs=rodinia_jobs, fleet=loose, predictor=predictor, seed=1
        )
        result = fleet_schedule(ctx, method="hcs")
        # Same node caps, but a shared ceiling below their sum: both nodes
        # drawing at once must exceed it.
        tight = Fleet(
            nodes=(
                Node("a", cap_w=18.0),
                Node("b", cap_w=18.0),
            ),
            budget_w=19.0,
        )
        violations = verify_fleet_schedule(ctx.with_fleet(tight), result)
        assert any(v.invariant == INVARIANT_FLEET_BUDGET for v in violations)

    def test_check_raises_schedule_invariant_error(self, fleet_ctx):
        from repro.analysis.invariants import (
            ScheduleInvariantError,
            check_fleet_schedule,
        )

        result = fleet_schedule(fleet_ctx, method="hcs")
        rigged = dataclasses.replace(
            result, assignments=result.assignments[1:]
        )
        with pytest.raises(ScheduleInvariantError):
            check_fleet_schedule(fleet_ctx, rigged, where="test")
