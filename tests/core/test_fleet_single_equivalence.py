"""``Fleet.single()`` must reproduce the scalar-cap world byte for byte.

The fleet refactor's anchor invariant: a context built over a trivial
single-node fleet takes the exact pre-fleet code path — no predictor
wrapping, no rescaled float anywhere — so every registry method, on both
backends, under every objective, returns the *byte-identical* schedule
and scores it returned when ``cap_w`` was a plain scalar.  All runs here
happen under the sanitizer, so the equivalence is checked on verified
schedules, not just on happy-path outputs.
"""

from __future__ import annotations

import pytest

from repro.analysis.invariants import SANITIZE_ENV
from repro.core.api import dispatch, schedule, scheduler_names
from repro.core.context import SchedulingContext
from repro.core.fleet import Fleet, NodePredictor
from repro.core.objectives import Objective
from tests.scalar import scalar_context

CAP_W = 15.0

#: Exhaustive methods only get a handful of jobs; the rest take the lot.
SMALL_METHODS = {"brute", "astar"}


@pytest.fixture(autouse=True)
def _sanitized(monkeypatch):
    monkeypatch.setenv(SANITIZE_ENV, "1")


def _result_tuple(result):
    sched = result.schedule
    return (
        tuple(j.uid for j in sched.cpu_queue),
        tuple(j.uid for j in sched.gpu_queue),
        tuple((j.uid, kind) for j, kind in sched.solo_tail),
        result.predicted_makespan_s,
        result.predicted_score,
    )


class TestSingleFleetEquivalence:
    @pytest.mark.parametrize("backend", ["tensor", "scalar"])
    @pytest.mark.parametrize("method", sorted(scheduler_names()))
    def test_every_method_identical_on_both_backends(
        self, method, backend, predictor, rodinia_jobs
    ):
        chosen = (
            rodinia_jobs[:5] if method in SMALL_METHODS else rodinia_jobs
        )
        to_path = scalar_context if backend == "scalar" else (lambda ctx: ctx)
        scalar, fleet = (
            dispatch(
                to_path(
                    SchedulingContext.build(
                        chosen, predictor=predictor, seed=7, **where
                    )
                ),
                method,
            )
            for where in ({"cap_w": CAP_W}, {"fleet": Fleet.single(CAP_W)})
        )
        # repro: noqa REP003 -- byte-identical backend contract
        assert _result_tuple(scalar) == _result_tuple(fleet)

    @pytest.mark.parametrize("objective", [o.value for o in Objective])
    def test_every_objective_identical(
        self, objective, predictor, rodinia_jobs
    ):
        results = [
            schedule(
                rodinia_jobs,
                method="hcs+",
                objective=objective,
                predictor=predictor,
                seed=3,
                **kwargs,
            )
            for kwargs in ({"cap_w": CAP_W}, {"fleet": Fleet.single(CAP_W)})
        ]
        # repro: noqa REP003 -- byte-identical backend contract
        assert _result_tuple(results[0]) == _result_tuple(results[1])


class TestSingleFleetContext:
    def test_trivial_single_fleet_never_wraps_the_predictor(
        self, predictor, rodinia_jobs
    ):
        scalar = SchedulingContext(
            jobs=rodinia_jobs, cap_w=CAP_W, predictor=predictor
        )
        fleet = SchedulingContext(
            jobs=rodinia_jobs, fleet=Fleet.single(CAP_W), predictor=predictor
        )
        assert not isinstance(fleet.predictor, NodePredictor)
        assert type(fleet.predictor) is type(scalar.predictor)
        assert fleet.cap_w == CAP_W

    def test_cap_w_deprecated_alias_coerces_to_single_fleet(
        self, predictor, rodinia_jobs
    ):
        ctx = SchedulingContext(
            jobs=rodinia_jobs, cap_w=CAP_W, predictor=predictor
        )
        assert ctx.fleet is not None
        assert ctx.fleet.is_trivial_single
        assert ctx.fleet.node_caps() == (CAP_W,)

    def test_metrics_identical_across_the_alias(
        self, predictor, rodinia_jobs
    ):
        scalar = SchedulingContext(
            jobs=rodinia_jobs, cap_w=CAP_W, predictor=predictor
        )
        fleet = SchedulingContext(
            jobs=rodinia_jobs, fleet=Fleet.single(CAP_W), predictor=predictor
        )
        result = schedule(
            rodinia_jobs, method="hcs", cap_w=CAP_W, predictor=predictor
        )
        m1 = scalar.metrics(result.schedule)
        m2 = fleet.metrics(result.schedule)
        # repro: noqa REP003 -- byte-identical backend contract
        assert (m1.makespan_s, m1.energy_j, m1.flow_s) == (
            m2.makespan_s, m2.energy_j, m2.flow_s
        )
