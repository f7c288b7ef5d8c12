"""Benchmarks of the repro.perf evaluation layer.

Demonstrates the two speedups the layer exists for, with exactness checks
riding along (cached and uncached runs must produce identical results):

* warm-vs-cold model building — a disk-cached ``characterize_space`` +
  ``profile_workload`` pass must be at least 3x faster than computing from
  scratch;
* memoized search — repeated GA / HCS+ runs against a shared evaluation
  cache must beat cold runs while returning identical schedules.
"""

from __future__ import annotations

import time

import pytest

from repro.hardware.calibration import make_ivy_bridge
from repro.core.context import SchedulingContext
from repro.core.freqpolicy import ModelGovernor
from repro.core.genetic import GaConfig, genetic_schedule
from repro.core.hcs import hcs_schedule
from repro.model.characterize import characterize_space
from repro.model.predictor import CoRunPredictor
from repro.model.profiler import profile_workload
from repro.perf.cache import EvalCache, fingerprint
from repro.perf.evaluator import CachingPredictor, ScheduleEvaluator
from repro.workload.program import make_jobs
from repro.workload.rodinia import rodinia_programs

CAP_W = 15.0


@pytest.fixture(scope="module")
def env():
    processor = make_ivy_bridge()
    jobs = make_jobs(rodinia_programs())
    table = profile_workload(processor, jobs)
    space = characterize_space(processor)
    predictor = CoRunPredictor(processor, table, space)
    return processor, jobs, table, space, predictor


def _ctx(predictor, jobs, **kwargs):
    return SchedulingContext(jobs=jobs, cap_w=CAP_W, predictor=predictor, **kwargs)


def _model_build(processor, jobs, disk_cache):
    table = profile_workload(processor, jobs, disk_cache=disk_cache)
    space = characterize_space(processor, disk_cache=disk_cache)
    return table, space


def test_bench_model_build_warm_cache_speedup(benchmark, env, tmp_path):
    """Disk-cached model building: >= 3x faster warm than cold."""
    processor, jobs, table, space, _ = env

    t0 = time.perf_counter()
    cold_table, cold_space = _model_build(processor, jobs, tmp_path)
    cold_s = time.perf_counter() - t0

    warm_table, warm_space = benchmark(_model_build, processor, jobs, tmp_path)
    t1 = time.perf_counter()
    _model_build(processor, jobs, tmp_path)
    warm_s = time.perf_counter() - t1

    # exactness: disk round-trip changes nothing
    assert fingerprint(cold_table) == fingerprint(table) == fingerprint(warm_table)
    assert fingerprint(cold_space) == fingerprint(space) == fingerprint(warm_space)

    speedup = cold_s / warm_s
    print(f"\n[perf] model build cold={cold_s:.3f}s warm={warm_s:.4f}s "
          f"speedup={speedup:.1f}x")
    assert speedup >= 3.0, f"warm cache only {speedup:.1f}x faster"


def test_bench_genetic_cached_repeat(benchmark, env):
    """A second GA run over a shared cache: faster and bit-identical."""
    _, jobs, _, _, predictor = env
    cfg = GaConfig(population=20, generations=10)
    shared = EvalCache()
    wrapped = CachingPredictor(predictor, cache=shared)
    governor = ModelGovernor(wrapped, CAP_W)
    evaluator = ScheduleEvaluator(wrapped, governor, shared)

    def ga_run():
        return genetic_schedule(
            _ctx(wrapped, jobs, seed=17, evaluator=evaluator), config=cfg
        )

    t0 = time.perf_counter()
    cold = ga_run()
    cold_s = time.perf_counter() - t0

    warm = benchmark(ga_run)
    t1 = time.perf_counter()
    ga_run()
    warm_s = time.perf_counter() - t1

    # The caller-supplied scalar evaluator keeps the cached runs on the
    # scalar search; pin the plain run there too so the trajectories match.
    plain = genetic_schedule(
        _ctx(predictor, jobs, seed=17), config=cfg, vectorized=False
    )
    assert warm[0] == cold[0] == plain[0]
    assert warm[1] == cold[1] == plain[1]

    speedup = cold_s / warm_s
    print(f"\n[perf] GA cold={cold_s:.3f}s warm={warm_s:.4f}s "
          f"speedup={speedup:.1f}x hit_rate={shared.stats.hit_rate:.2f}")
    assert warm_s < cold_s
    assert shared.stats.hit_rate > 0.5


def test_bench_hcs_plus_cached_repeat(benchmark, env):
    """HCS+ with a shared cache: repeat runs dominated by cache hits."""
    _, jobs, _, _, predictor = env
    shared = EvalCache()
    wrapped = CachingPredictor(predictor, cache=shared)
    governor = ModelGovernor(wrapped, CAP_W)
    evaluator = ScheduleEvaluator(wrapped, governor, shared)

    def hcs_run():
        return hcs_schedule(
            _ctx(wrapped, jobs, seed=13, evaluator=evaluator), refine=True
        )

    t0 = time.perf_counter()
    cold = hcs_run()
    cold_s = time.perf_counter() - t0

    warm = benchmark(hcs_run)
    t1 = time.perf_counter()
    hcs_run()
    warm_s = time.perf_counter() - t1

    plain = hcs_schedule(_ctx(predictor, jobs, seed=13), refine=True)
    assert warm.schedule == cold.schedule == plain.schedule
    # repro: noqa REP003 -- byte-identical warm-cache memoization contract
    assert warm.predicted_makespan_s == plain.predicted_makespan_s

    print(f"\n[perf] HCS+ cold={cold_s:.3f}s warm={warm_s:.4f}s "
          f"speedup={cold_s / warm_s:.1f}x "
          f"hit_rate={shared.stats.hit_rate:.2f}")
    assert warm_s < cold_s
