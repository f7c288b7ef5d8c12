"""Tests for the SchedulingContext bundle."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.core.api import dispatch
from repro.core.context import SchedulingContext
from repro.core.fleet import Fleet, Node, NodePredictor
from repro.core.freqpolicy import ModelGovernor
from repro.core.hcs import hcs_schedule
from repro.core.objectives import EnergyAwareGovernor, Objective
from repro.model.predictor import CoRunPredictor
from repro.perf.cache import EvalCache
from repro.perf.evaluator import CachingPredictor, ScheduleEvaluator
from repro.perf.tensor import BatchScheduleEvaluator, PairTables
from tests.scalar import scalar_context


@pytest.fixture(scope="module")
def ctx(predictor, rodinia_jobs):
    return SchedulingContext(
        jobs=tuple(rodinia_jobs), cap_w=15.0, predictor=predictor, seed=3
    )


class TestConstruction:
    def test_empty_jobs_rejected(self, predictor):
        with pytest.raises(ValueError):
            SchedulingContext(jobs=(), cap_w=15.0, predictor=predictor)

    def test_objective_coerced_from_string(self, predictor, rodinia_jobs):
        c = SchedulingContext(
            jobs=tuple(rodinia_jobs),
            cap_w=15.0,
            predictor=predictor,
            objective="energy",
        )
        assert c.objective is Objective.ENERGY

    def test_governor_follows_objective(self, ctx):
        assert isinstance(ctx.governor, ModelGovernor)
        assert isinstance(
            ctx.with_objective("energy").governor, EnergyAwareGovernor
        )

    def test_evaluator_bound_to_objective_and_cache(self, ctx):
        assert ctx.evaluator.objective is Objective.MAKESPAN
        assert ctx.evaluator.cache is ctx.cache

    def test_context_keeps_the_callers_predictor(self, predictor, rodinia_jobs):
        c = SchedulingContext(jobs=rodinia_jobs, cap_w=15.0, predictor=predictor)
        # The stock model is served from tensors that travel with the
        # governor; the predictor stays the caller's own.
        assert c.predictor is predictor
        assert c.governor.predictor is predictor
        assert PairTables.serving(c.governor) == (c.evaluator.tables, c.tensor)
        assert c.objective is Objective.MAKESPAN

    def test_node_context_keeps_the_nodes_view_of_it(self, predictor, rodinia_jobs):
        c = SchedulingContext(
            jobs=rodinia_jobs, fleet=Fleet(nodes=(NODE,)), predictor=predictor
        )
        assert type(c.predictor) is NodePredictor
        assert c.predictor.inner is predictor and c.predictor.node == NODE
        assert c.tensor is not None and c.tensor.node_name == NODE.name
        assert c.with_seed(4).predictor is c.predictor

    def test_mismatched_evaluator_rejected(self, predictor, rodinia_jobs):
        evaluator = ScheduleEvaluator(
            predictor,
            ModelGovernor(predictor, 15.0),
            objective="energy",
        )
        with pytest.raises(ValueError, match="objective"):
            SchedulingContext(
                jobs=tuple(rodinia_jobs),
                cap_w=15.0,
                predictor=predictor,
                objective="makespan",
                evaluator=evaluator,
            )

    def test_build_profiles_on_the_fly(self, rodinia_jobs):
        c = SchedulingContext.build(rodinia_jobs[:2], cap_w=15.0)
        assert c.predicted_makespan(
            hcs_schedule(c).schedule
        ) > 0.0

    def test_build_caches_a_bare_predictor(
        self, processor, table, space, rodinia_jobs
    ):
        # A subclassed model keeps the scalar stack, whose A* expansions
        # re-ask the same (pair, setting) along every branch.
        asked = Counter()

        class Counting(CoRunPredictor):
            def corun_times(self, cpu_uid, gpu_uid, setting):
                asked[cpu_uid, gpu_uid, setting] += 1
                return super().corun_times(cpu_uid, gpu_uid, setting)

        c = SchedulingContext.build(
            rodinia_jobs[:5], cap_w=15.0, predictor=Counting(processor, table, space)
        )
        assert isinstance(c.predictor, CachingPredictor) and c.tensor is None
        first = dispatch(c, "astar")
        assert asked and max(asked.values()) == 1
        calls = sum(asked.values())
        assert dispatch(c, "astar").schedule == first.schedule
        assert sum(asked.values()) == calls


class TestDerivation:
    def test_with_objective_shares_the_cache(self, ctx):
        energy = ctx.with_objective("energy")
        assert energy.cache is ctx.cache
        assert energy.evaluator is not ctx.evaluator
        assert energy.evaluator.objective is Objective.ENERGY

    def test_with_seed_derives_new_context(self, ctx):
        derived = ctx.with_seed(99)
        assert derived is not ctx
        assert derived.seed == 99
        assert derived.evaluator is ctx.evaluator

    def test_with_cap_gets_a_fresh_cache(self, ctx):
        other = ctx.with_cap(12.0)
        assert other.cap_w == 12.0
        assert other.cache is not ctx.cache

    def test_with_jobs_keeps_policies(self, ctx, rodinia_jobs):
        sub = ctx.with_jobs(rodinia_jobs[:3])
        assert len(sub.jobs) == 3
        assert sub.evaluator is ctx.evaluator


class _OwnModel(CoRunPredictor):
    """A non-stock model: the tensors cannot vouch for a subclass."""


class _OwnGovernor(ModelGovernor):
    """A non-stock governor: the pair tables reduce only the stock ones."""


def _stock(predictor, jobs):
    return SchedulingContext(jobs=jobs, cap_w=15.0, predictor=predictor)


def _own_model(predictor, jobs):
    model = _OwnModel(predictor.processor, predictor.table, predictor.space)
    return SchedulingContext(jobs=jobs, cap_w=15.0, predictor=model)


def _caller_governor(predictor, jobs):
    return SchedulingContext(
        jobs=jobs,
        cap_w=15.0,
        predictor=predictor,
        governor=ModelGovernor(predictor, 15.0),
    )


def _own_factory(predictor, jobs):
    return SchedulingContext(
        jobs=jobs,
        cap_w=15.0,
        predictor=predictor,
        governor_factory=lambda p, cap_w, objective: _OwnGovernor(p, cap_w),
    )


class TestPathSelection:
    """The context picks the evaluation path itself; no caller chooses it."""

    @pytest.mark.parametrize(
        "build, tensor_served",
        [
            (_stock, True),
            (_own_model, False),
            (_caller_governor, False),
            # The tensor travels with the governor, and the tables cannot
            # reduce this one's choices, so nothing carries the tensor.
            (_own_factory, False),
        ],
        ids=["stock", "predictor-subclass", "caller-governor", "governor-factory"],
    )
    def test_context_picks_its_evaluation_path(
        self, predictor, rodinia_jobs, build, tensor_served
    ):
        ctx = build(predictor, rodinia_jobs)
        assert (ctx.tensor is not None) is tensor_served
        if build is _stock:
            assert type(ctx.evaluator) is BatchScheduleEvaluator
            assert PairTables.serving(ctx.governor) is not None
        else:
            assert type(ctx.evaluator) is ScheduleEvaluator
            assert PairTables.serving(ctx.governor) is None
        # Either path schedules the same model to the same bits.
        ref = hcs_schedule(_stock(predictor, rodinia_jobs))
        got = hcs_schedule(ctx)
        assert got.schedule == ref.schedule
        # repro: noqa REP003 -- both paths replay one model bit for bit
        assert got.predicted_makespan_s == ref.predicted_makespan_s

    @pytest.mark.parametrize("objective", ["makespan", "energy"])
    @pytest.mark.parametrize("refine", [False, True], ids=["hcs", "hcs+"])
    def test_tensor_context_asks_the_predictor_for_no_best_solo(
        self, predictor, rodinia_jobs, monkeypatch, objective, refine
    ):
        """Steps 1-3 and the solo tail read the tensor model: the
        predictor, spied on, answers no ``best_solo``."""
        ctx = SchedulingContext(
            jobs=tuple(rodinia_jobs), cap_w=15.0,
            predictor=CachingPredictor(predictor, cache=EvalCache()),
            objective=objective,
        )
        calls = []
        best_solo = ctx.predictor.best_solo
        monkeypatch.setattr(
            ctx.predictor, "best_solo",
            lambda *args: calls.append(args) or best_solo(*args),
        )
        hcs_schedule(ctx, refine=refine)
        assert calls == []
        # The spy does see the scalar stack's queries.
        hcs_schedule(scalar_context(ctx), refine=refine)
        assert calls


NODE = Node("n", speed_scale=2.0, power_scale=1.3, cap_w=12.0)
OTHER = Node("m", speed_scale=1.5, power_scale=0.9, cap_w=14.0)


def _node_views(predictor) -> int:
    """How many node scalings sit between ``predictor`` and the model."""
    views = 0
    while isinstance(predictor, NodePredictor):
        views += 1
        predictor = predictor.inner
    return views


class TestNodeScaledDerivations:
    """Every derivation of a node-scaled context scales the model once.

    Each derived context must plan exactly like the same context built
    directly: same HCS schedule, same predicted bits.
    """

    @pytest.fixture(scope="class")
    def jobs(self, rodinia_jobs):
        return tuple(rodinia_jobs[:6])

    @pytest.fixture(scope="class")
    def scaled(self, predictor, jobs):
        return SchedulingContext.build(
            jobs, fleet=Fleet(nodes=(NODE,)), predictor=predictor
        )

    def _direct(self, predictor, jobs, node=NODE, **kwargs):
        return SchedulingContext.build(
            jobs, fleet=Fleet(nodes=(node,)), predictor=predictor, **kwargs
        )

    @pytest.mark.parametrize(
        "derive, direct",
        [
            (lambda c: c.with_objective("energy"), {"objective": "energy"}),
            (lambda c: c.with_seed(5), {"seed": 5}),
            (
                lambda c: c.with_cap(14.0),
                {"node": replace(NODE, cap_w=14.0)},
            ),
            (lambda c: c.with_fleet(Fleet(nodes=(OTHER,))), {"node": OTHER}),
            (lambda c: c.node_context(0), {}),
        ],
        ids=["objective", "seed", "cap", "fleet", "node_context"],
    )
    def test_derivation_matches_the_direct_build(
        self, scaled, predictor, jobs, derive, direct
    ):
        derived = derive(scaled)
        built = self._direct(predictor, jobs, **direct)
        assert _node_views(derived.predictor) == 1
        assert _node_views(derived.base_predictor) == 0
        a, b = hcs_schedule(derived), hcs_schedule(built)
        assert a.schedule == b.schedule
        # repro: noqa REP003 -- derived and direct contexts must agree bit for bit
        assert a.predicted_makespan_s == b.predicted_makespan_s
        # repro: noqa REP003 -- same bits under the context objective
        assert derived.score(a.schedule) == built.score(b.schedule)


class TestServices:
    def test_rng_is_reproducible(self, ctx):
        a = ctx.rng().random(4)
        b = ctx.rng().random(4)
        assert np.array_equal(a, b)

    def test_score_equals_makespan_under_default_objective(self, ctx):
        schedule = hcs_schedule(ctx).schedule
        # repro: noqa REP003 -- identity contract: score IS the memoized makespan
        assert ctx.score(schedule) == ctx.predicted_makespan(schedule)

    def test_metrics_are_objective_consistent(self, ctx):
        schedule = hcs_schedule(ctx).schedule
        m = ctx.metrics(schedule)
        assert m.makespan_s == pytest.approx(ctx.predicted_makespan(schedule))
        assert m.edp_js == pytest.approx(m.makespan_s * m.energy_j)
        # The energy objective scores under its own (energy-aware)
        # governor, so its score matches *its* metrics — and beats the
        # makespan governor's energy, whatever the shared cache holds.
        energy_ctx = ctx.with_objective("energy")
        em = energy_ctx.metrics(schedule)
        assert energy_ctx.score(schedule) == pytest.approx(em.energy_j)
        assert em.energy_j <= m.energy_j

    def test_objective_scores_never_leak_across_objectives(
        self, predictor, rodinia_jobs
    ):
        cache = EvalCache()
        base = SchedulingContext(
            jobs=tuple(rodinia_jobs),
            cap_w=15.0,
            predictor=predictor,
            cache=cache,
        )
        schedule = hcs_schedule(base).schedule
        makespan = base.score(schedule)
        edp = base.with_objective("edp").score(schedule)
        # repro: noqa REP003 -- cache-identity contract plus exact cross-objective inequality
        assert base.score(schedule) == makespan  # still the cached makespan
        assert edp != makespan  # repro: noqa REP003 -- objectives must differ exactly
