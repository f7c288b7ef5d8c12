"""Tensor-vs-scalar backend speedup on the search schedulers.

The tensor backend exists to make population/neighborhood search cheap:
a GA generation or a refinement pass scores dozens of schedules whose
answers all live in the same precomputed tensors.  This benchmark runs the
GA (population 64) plus the HCS+ refinement passes on a 16-job workload
on a fresh context and on its scalar referee
(:func:`tests.scalar.scalar_context`), each on a cold cache, the way a
fresh scheduling call would pay for it — asserts the outputs are
byte-identical, and requires the tensor backend to be at least 3x faster.
The tensor leg runs first, so it alone pays for building the tensor model.

Results land in ``BENCH_results.json`` (see ``conftest.bench_record``);
CI gates on the recorded speedup via ``tools/check_bench.py``.
"""

from __future__ import annotations

import time

from repro.core.context import SchedulingContext
from repro.core.genetic import GaConfig, genetic_schedule
from repro.core.refine import refine_schedule
from repro.hardware.calibration import make_ivy_bridge
from repro.model.characterize import characterize_space
from repro.model.predictor import CoRunPredictor
from repro.model.profiler import profile_workload
from repro.perf.tensor import BatchScheduleEvaluator
from repro.workload.generator import random_workload
from tests.scalar import scalar_context

CAP_W = 15.0
N_JOBS = 16
SEED = 1234
GA = GaConfig(population=64, generations=15)
MIN_SPEEDUP = 3.0


def _search(predictor, jobs, scalar):
    """One full search pass: context build + GA + refinement.

    The scalar *search trajectory* is pinned on both paths
    (``vectorized=False``) so this stays a pure backend benchmark with a
    byte-identity referee; the vectorized population kernels have their
    own gate in ``test_population_solvers.py``.
    """
    ctx = SchedulingContext(jobs=jobs, cap_w=CAP_W, predictor=predictor, seed=SEED)
    if scalar:
        ctx = scalar_context(ctx)
    best, score = genetic_schedule(ctx, config=GA, vectorized=False)
    refined = refine_schedule(best, ctx, vectorized=False)
    return ctx, refined, score


def test_ga_plus_refine_speedup(benchmark, bench_record):
    processor = make_ivy_bridge()
    jobs = random_workload(N_JOBS, seed=SEED)
    predictor = CoRunPredictor(
        processor, profile_workload(processor, jobs),
        characterize_space(processor),
    )

    t0 = time.perf_counter()
    ctx_t, sched_t, score_t = benchmark.pedantic(
        lambda: _search(predictor, jobs, scalar=False),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    tensor_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    ctx_s, sched_s, score_s = _search(predictor, jobs, scalar=True)
    scalar_s = time.perf_counter() - t0

    # Same search, same answers — the speedup must be free of drift.
    assert isinstance(ctx_t.evaluator, BatchScheduleEvaluator)
    assert not isinstance(ctx_s.evaluator, BatchScheduleEvaluator)
    assert sched_t == sched_s
    # repro: noqa REP003 -- byte-identical backend contract
    assert score_t == score_s

    speedup = scalar_s / tensor_s
    stats = ctx_t.evaluator.snapshot()
    bench_record(
        name="tensor_backend_ga_refine",
        n_jobs=N_JOBS,
        population=GA.population,
        generations=GA.generations,
        scalar_s=scalar_s,
        tensor_s=tensor_s,
        speedup=speedup,
        tensor_stats=stats,
    )
    print(
        f"\n[tensor backend] scalar={scalar_s:.3f}s tensor={tensor_s:.3f}s "
        f"speedup={speedup:.1f}x batch_calls={stats['tensor_batch_calls']:g} "
        f"full_replays={stats['tensor_full_replays']:g}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"tensor backend only {speedup:.2f}x faster than cold-cache scalar "
        f"(need >= {MIN_SPEEDUP}x)"
    )
