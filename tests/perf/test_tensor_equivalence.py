"""Backend equivalence across the whole scheduler registry.

The acceptance bar for the tensor backend: every registered method must
produce the *byte-identical* schedule and scores on a stock context and on
its scalar referee (:func:`tests.scalar.scalar_context`) — same queues,
same solo tail, same predicted makespan and objective score, same
tie-breaking.  Models the tensors cannot represent exactly (oracle, noisy)
must be declined by ``tensorize`` so they silently keep the scalar path.
"""

from __future__ import annotations

import pytest

from repro.core.api import Scheduler, dispatch, schedule, scheduler_names
from repro.core.context import SchedulingContext
from repro.model.predictor import CoRunPredictor, OracleDegradations
from repro.perf.tensor import TensorModel, tensorize
from tests.scalar import scalar_context

CAP_W = 15.0

#: Exhaustive methods only get a handful of jobs; the rest take the lot.
SMALL_METHODS = {"brute", "astar"}

#: The vectorized population kernels deliberately walk a different (never
#: worse) search trajectory than the scalar operators, so byte-identity
#: across *backends* is asserted with the scalar search pinned; the
#: vectorized trajectory has its own equal-or-better tests below.
PINNED_SCALAR_SEARCH = {
    "genetic": {"vectorized": False},
    "hcs+": {"vectorized": False},
    "portfolio": {
        "member_opts": {
            "genetic": {"vectorized": False},
            "hcs+": {"vectorized": False},
        }
    },
}


@pytest.fixture(scope="module")
def jobs(rodinia_jobs):
    return rodinia_jobs


@pytest.fixture(scope="module")
def small_jobs(rodinia_jobs):
    return rodinia_jobs[:5]


def _result_tuple(result):
    sched = result.schedule
    return (
        tuple(j.uid for j in sched.cpu_queue),
        tuple(j.uid for j in sched.gpu_queue),
        tuple((j.uid, kind) for j, kind in sched.solo_tail),
        result.predicted_makespan_s,
        result.predicted_score,
    )


def _on_both_paths(jobs, method, opts, **build):
    """``method`` on the tensor context and on its scalar referee."""
    results = []
    for to_path in (lambda ctx: ctx, scalar_context):
        ctx = SchedulingContext.build(jobs, cap_w=CAP_W, **build)
        results.append(dispatch(to_path(ctx), method, **opts))
    return results


class TestRegistryEquivalence:
    def test_registry_is_complete(self):
        assert scheduler_names() == (
            "astar", "brute", "default", "genetic", "hcs", "hcs+",
            "portfolio", "random",
        )

    @pytest.mark.parametrize("method", sorted(scheduler_names()))
    def test_method_identical_under_both_backends(
        self, method, predictor, jobs, small_jobs
    ):
        chosen = small_jobs if method in SMALL_METHODS else jobs
        results = _on_both_paths(
            chosen,
            method,
            PINNED_SCALAR_SEARCH.get(method, {}),
            predictor=predictor,
            seed=7,
        )
        # repro: noqa REP003 -- byte-identical backend contract
        assert _result_tuple(results[0]) == _result_tuple(results[1])

    @pytest.mark.parametrize("objective", ["energy", "edp"])
    @pytest.mark.parametrize("method", ["hcs", "hcs+", "genetic"])
    def test_objectives_identical_under_both_backends(
        self, method, objective, predictor, jobs
    ):
        results = _on_both_paths(
            jobs,
            method,
            PINNED_SCALAR_SEARCH.get(method, {}),
            objective=objective,
            predictor=predictor,
            seed=3,
        )
        # repro: noqa REP003 -- byte-identical backend contract
        assert _result_tuple(results[0]) == _result_tuple(results[1])

    def test_reusable_scheduler_identical_under_both_backends(
        self, predictor, jobs
    ):
        tensor = Scheduler(
            "hcs+", predictor=predictor, cap_w=CAP_W, seed=5, vectorized=False
        )
        scalar = Scheduler(
            "hcs+", predictor=predictor, cap_w=CAP_W, seed=5, vectorized=False
        )
        build = scalar.context
        scalar.context = lambda jobs: scalar_context(build(jobs))
        results = [tensor(jobs), scalar(jobs)]
        assert scalar.context(jobs).tensor is None
        # repro: noqa REP003 -- byte-identical backend contract
        assert _result_tuple(results[0]) == _result_tuple(results[1])

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_vectorized_refine_equal_or_better(self, seed, predictor, jobs):
        """Full-neighborhood vectorized refinement never scores worse than
        the scalar sampling passes (same seed, same start)."""
        vectorized, scalar = [
            schedule(
                jobs,
                method="hcs+",
                cap_w=CAP_W,
                predictor=predictor,
                seed=seed,
                vectorized=pin,
            )
            for pin in (True, False)
        ]
        assert vectorized.predicted_score <= scalar.predicted_score

    @pytest.mark.parametrize("seed", [1234, 7, 42])
    def test_vectorized_ga_refine_pipeline_equal_or_better(
        self, seed, processor
    ):
        """The vectorized GA+refine pipeline — the solver hot path the
        population kernels replace — scores equal-or-better than the
        scalar search on the benchmark's seeded scenario family (16-job
        random workload, population 64, same seed, same config)."""
        from repro.core.genetic import GaConfig, genetic_schedule
        from repro.core.refine import refine_schedule
        from repro.model.characterize import characterize_space
        from repro.model.profiler import profile_workload
        from repro.workload.generator import random_workload

        jobs = random_workload(16, seed=1234)
        predictor = CoRunPredictor(
            processor, profile_workload(processor, jobs),
            characterize_space(processor),
        )
        config = GaConfig(population=64, generations=15)

        def pipeline(pin):
            ctx = SchedulingContext(
                jobs=jobs, cap_w=CAP_W, predictor=predictor, seed=seed
            )
            best, _ = genetic_schedule(ctx, config=config, vectorized=pin)
            refined = refine_schedule(best, ctx, vectorized=pin)
            return ctx.evaluator(refined)

        assert pipeline(True) <= pipeline(False)


class TestTensorize:
    def test_tensorize_declines_oracle(self, processor, table, rodinia_jobs):
        oracle = OracleDegradations(processor, table)
        assert tensorize(oracle, [j.uid for j in rodinia_jobs]) is None

    def test_tensorize_declines_noisy_predictor(
        self, processor, table, space, rodinia_jobs
    ):
        from repro.experiments.robustness import NoisyPredictor

        noisy = NoisyPredictor(processor, table, space, noise_sigma=0.2)
        assert tensorize(noisy, [j.uid for j in rodinia_jobs]) is None

    def test_tensorize_accepts_exact_predictor(
        self, processor, table, space, rodinia_jobs
    ):
        predictor = CoRunPredictor(processor, table, space)
        tensor = tensorize(predictor, [j.uid for j in rodinia_jobs])
        assert isinstance(tensor, TensorModel)
        assert set(tensor.index) >= {j.uid for j in rodinia_jobs}

    def test_batch_stats_surface_in_snapshot(self, predictor, jobs):
        """The evaluator's snapshot must expose the batch bookkeeping
        (prefixed ``tensor_``) alongside the cache counters, with no
        scalar fallbacks on a fully tensorizable workload."""
        from repro.core.genetic import genetic_schedule

        ctx = SchedulingContext(jobs=jobs, cap_w=CAP_W, predictor=predictor)
        genetic_schedule(ctx.with_seed(2))
        snap = ctx.evaluator.snapshot()
        assert snap["tensor_scalar_fallbacks"] == 0
        assert snap["tensor_batch_calls"] >= 1
        assert snap["tensor_batch_schedules"] >= snap["tensor_batch_calls"]
