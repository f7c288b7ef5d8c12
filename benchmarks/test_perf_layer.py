"""Benchmarks of the repro.perf evaluation layer.

Demonstrates the two speedups the layer exists for, with exactness checks
riding along (cached and uncached runs must produce identical results):

* warm-vs-cold model building — a disk-cached ``characterize_space`` +
  ``profile_workload`` pass must be at least 3x faster than computing from
  scratch;
* memoized search — repeated GA / HCS+ runs against a shared evaluation
  cache must beat cold runs while returning identical schedules.

It also times the population replay (``score_population``) at the two
shapes the search runs at n = 48 — a K = 128 GA generation and a full swap
neighbourhood — with every lane checked against the per-schedule replay.
"""

from __future__ import annotations

import time

import numpy as np
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
from repro.perf.population import (
    decode_queues,
    random_population,
    swap_neighborhood,
)
from repro.util.rng import default_rng
from repro.workload.generator import random_workload
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


@pytest.fixture(scope="module")
def population_env(env):
    """A 48-job tensor evaluator and its jobs' tensor rows."""
    processor, _, _, space, _ = env
    jobs = tuple(random_workload(48, default_rng(1)))
    predictor = CoRunPredictor(processor, profile_workload(processor, jobs), space)
    ev = _ctx(predictor, jobs).evaluator
    rows = np.array([ev.tensor.index[j.uid] for j in jobs], dtype=np.int64)
    return ev, jobs, rows


def _population_queues(shape, rows):
    """``(Qc, len_c, Qg, len_g)`` of one search population over ``rows``."""
    if shape == "ga-generation":
        placement, priority = random_population(default_rng(2), 128, len(rows))
        return decode_queues(placement, priority, rows)
    order = default_rng(3).permutation(len(rows))
    cpu, gpu = rows[order[:20]], rows[order[20:]]
    Qc, Qg, _ = swap_neighborhood(cpu, gpu, 0.0, 0.0)
    K = Qc.shape[0]
    return Qc, np.full(K, len(cpu)), Qg, np.full(K, len(gpu))


@pytest.mark.parametrize("shape", ["ga-generation", "swap-neighbourhood"])
def test_bench_score_population(benchmark, bench_record, population_env, shape):
    """One lockstep population replay at n = 48; every lane equals the
    per-schedule replay of its queues."""
    from repro.core.schedule import CoSchedule

    ev, jobs, rows = population_env
    queues = _population_queues(shape, rows)
    scores, mk, en, fl, bad = benchmark(ev.score_population, *queues)

    Qc, len_c, Qg, len_g = queues
    by_row = dict(zip(rows.tolist(), jobs))
    for k in range(len(scores)):
        sched = CoSchedule(
            cpu_queue=tuple(by_row[r] for r in Qc[k, : len_c[k]].tolist()),
            gpu_queue=tuple(by_row[r] for r in Qg[k, : len_g[k]].tolist()),
        )
        expected = ev._indexed_replay(sched)
        assert bool(bad[k]) == (expected is None)
        if expected is not None:
            # repro: noqa REP003 -- byte-identical population-lane contract
            assert (mk[k], en[k], fl[k]) == expected

    lanes = len(scores)
    us_per_lane = benchmark.stats.stats.min / lanes * 1e6
    bench_record(lanes=lanes, us_per_lane=us_per_lane)
    print(f"\n[perf] score_population {shape} n=48 K={lanes} "
          f"{us_per_lane:.2f} us/lane")
