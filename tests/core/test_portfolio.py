"""The racing portfolio scheduler: feasibility, degradation, budgets.

Every run here happens under the armed sanitizer, so "the portfolio
returns a schedule" always means "returns a *verified* schedule" — across
every objective, and through the fleet scheduler on a 4-node fleet.  The
degradation tests check the racing contract: an ``inf``-scored member
never wins, a member's error propagates, and budgets cut off later
members without starving the first.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.analysis.invariants import SANITIZE_ENV, verify_fleet_schedule
from repro.core.api import _REGISTRY, schedule
from repro.core.context import SchedulingContext
from repro.core.fleet import Fleet
from repro.core.fleetsched import fleet_schedule
from repro.core.objectives import Objective
from repro.core.portfolio import DEFAULT_MEMBERS, portfolio_schedule
from repro.errors import InfeasibleCapError

CAP_W = 15.0


@pytest.fixture(autouse=True)
def _sanitized(monkeypatch):
    monkeypatch.setenv(SANITIZE_ENV, "1")


def _uids(sched):
    return (
        {j.uid for j in sched.cpu_queue}
        | {j.uid for j in sched.gpu_queue}
        | {j.uid for j, _ in sched.solo_tail}
    )


class TestPortfolioFeasible:
    @pytest.mark.parametrize("objective", [o.value for o in Objective])
    def test_sanitized_across_all_objectives(
        self, objective, predictor, rodinia_jobs
    ):
        result = schedule(
            rodinia_jobs,
            method="portfolio",
            cap_w=CAP_W,
            objective=objective,
            predictor=predictor,
            seed=7,
        )
        assert result.method == "portfolio"
        assert result.objective is Objective(objective)
        assert _uids(result.schedule) == {j.uid for j in rodinia_jobs}
        winner = result.details["winner"]
        members = result.details["members"]
        assert winner in DEFAULT_MEMBERS
        assert members[winner]["winner"] is True
        assert result.predicted_score == members[winner]["score"]
        # The winner is the best of everything that actually ran.
        ran = [s["score"] for s in members.values() if "score" in s]
        assert result.predicted_score == min(ran)

    def test_winner_never_worse_than_every_member_alone(
        self, predictor, rodinia_jobs
    ):
        race = schedule(
            rodinia_jobs, method="portfolio", cap_w=CAP_W,
            predictor=predictor, seed=7,
        )
        solos = [
            schedule(
                rodinia_jobs, method=m, cap_w=CAP_W,
                predictor=predictor, seed=7,
            )
            for m in DEFAULT_MEMBERS
        ]
        assert race.predicted_score <= min(s.predicted_score for s in solos)

    def test_four_node_fleet_passthrough(self, predictor, rodinia_jobs):
        fleet = Fleet.uniform(4, budget_w=4 * CAP_W)
        ctx = SchedulingContext(
            jobs=rodinia_jobs, fleet=fleet, predictor=predictor, seed=7,
        )
        plan = fleet_schedule(ctx, method="portfolio")
        scheduled = set()
        for a in plan.assignments:
            assert a.result.method == "portfolio"
            assert a.result.details["winner"] in DEFAULT_MEMBERS
            scheduled |= _uids(a.result.schedule)
        assert scheduled == {j.uid for j in rodinia_jobs}
        assert verify_fleet_schedule(ctx, plan) == []


def _ctx(predictor, jobs, **kw):
    return SchedulingContext(
        jobs=jobs, cap_w=CAP_W, predictor=predictor, seed=7, **kw
    )


class TestPortfolioDegradation:
    def test_an_inf_scored_member_never_wins(
        self, monkeypatch, predictor, rodinia_jobs
    ):
        # An infeasible plan scores inf: a candidate the race never keeps.
        def infeasible(ctx, **opts):
            return replace(
                _REGISTRY["hcs+"](ctx, **opts),
                predicted_makespan_s=math.inf,
                predicted_score=math.inf,
            )

        monkeypatch.setitem(_REGISTRY, "hcs", infeasible)
        best, stats = portfolio_schedule(
            _ctx(predictor, rodinia_jobs), members=("hcs", "hcs+")
        )
        assert best.method == "hcs+"
        assert stats["hcs"]["score"] == math.inf
        assert "winner" not in stats["hcs"]
        assert stats["hcs+"]["winner"] is True

    def test_a_member_error_propagates(
        self, monkeypatch, predictor, rodinia_jobs
    ):
        # The cap certificate runs before the race, so a member's error
        # is a fault to surface, not a loss to skip.
        def boom(ctx, **opts):
            raise InfeasibleCapError("nothing fits")

        monkeypatch.setitem(_REGISTRY, "hcs+", boom)
        with pytest.raises(InfeasibleCapError, match="nothing fits"):
            portfolio_schedule(
                _ctx(predictor, rodinia_jobs), members=("hcs", "hcs+")
            )

    def test_deadline_skips_later_members_but_not_the_first(
        self, predictor, rodinia_jobs
    ):
        best, stats = portfolio_schedule(
            _ctx(predictor, rodinia_jobs), deadline_s=1e-9
        )
        # The first member always runs; the expired deadline cuts the rest.
        assert best.method == "hcs"
        assert "score" in stats["hcs"]
        assert stats["hcs+"]["skipped"] == "deadline"
        assert stats["genetic"]["skipped"] == "deadline"

    def test_eval_budget_skips_later_members(self, predictor, rodinia_jobs):
        best, stats = portfolio_schedule(
            _ctx(predictor, rodinia_jobs), eval_budget=1
        )
        assert best.method == "hcs"
        assert stats["hcs+"]["skipped"] == "eval_budget"
        assert stats["genetic"]["skipped"] == "eval_budget"

    def test_generous_budgets_run_everyone(self, predictor, rodinia_jobs):
        _, stats = portfolio_schedule(
            _ctx(predictor, rodinia_jobs),
            deadline_s=3600.0,
            eval_budget=10**9,
        )
        assert all("score" in s for s in stats.values())


class TestPortfolioValidation:
    def test_empty_members_rejected(self, predictor, rodinia_jobs):
        with pytest.raises(ValueError, match="at least one member"):
            portfolio_schedule(_ctx(predictor, rodinia_jobs), members=())

    def test_unknown_member_rejected(self, predictor, rodinia_jobs):
        with pytest.raises(ValueError, match="unknown portfolio member"):
            portfolio_schedule(
                _ctx(predictor, rodinia_jobs), members=("hcs", "gradient")
            )

    def test_self_race_rejected(self, predictor, rodinia_jobs):
        with pytest.raises(ValueError, match="cannot race itself"):
            portfolio_schedule(
                _ctx(predictor, rodinia_jobs), members=("portfolio",)
            )

    @pytest.mark.parametrize(
        "kw", [{"deadline_s": 0.0}, {"deadline_s": -1.0},
               {"eval_budget": 0}, {"eval_budget": -5}],
    )
    def test_non_positive_budgets_rejected(self, kw, predictor, rodinia_jobs):
        with pytest.raises(ValueError, match="must be positive"):
            portfolio_schedule(_ctx(predictor, rodinia_jobs), **kw)
