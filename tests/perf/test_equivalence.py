"""Exactness of the perf layer: caching never changes results.

Every memoized path is a pure function, so cached results must be
*byte-identical* to uncached ones.  That is the invariant that makes the
perf layer safe to leave on by default.
"""

from __future__ import annotations

import pytest

from repro.core.bruteforce import brute_force_best
from repro.core.context import SchedulingContext
from repro.core.freqpolicy import ModelGovernor
from repro.core.genetic import GaConfig, genetic_schedule
from repro.core.hcs import hcs_schedule
from repro.core.refine import refine_schedule
from repro.core.schedule import predicted_makespan
from repro.model.characterize import characterize_space
from repro.model.profiler import profile_workload
from repro.perf.cache import EvalCache, fingerprint
from repro.perf.evaluator import CachingPredictor, ScheduleEvaluator

CAP_W = 15.0


def _ctx(predictor, jobs, **kwargs):
    return SchedulingContext(jobs=jobs, cap_w=CAP_W, predictor=predictor, **kwargs)


@pytest.fixture(scope="module")
def cached_predictor(predictor):
    return CachingPredictor(predictor, cache=EvalCache())


class TestCachingPredictorExact:
    def test_degradations_identical(self, predictor, cached_predictor, rodinia_jobs):
        setting = predictor.processor.max_setting
        a, b = rodinia_jobs[0].uid, rodinia_jobs[1].uid
        assert cached_predictor.degradations(a, b, setting) == \
            predictor.degradations(a, b, setting)
        # warm path returns the very same values
        assert cached_predictor.degradations(a, b, setting) == \
            predictor.degradations(a, b, setting)

    def test_pair_power_identical(self, predictor, cached_predictor, rodinia_jobs):
        setting = predictor.processor.medium_setting
        a, b = rodinia_jobs[2].uid, rodinia_jobs[3].uid
        # repro: noqa REP003 -- byte-identical memoization contract
        assert cached_predictor.pair_power_w(a, b, setting) == \
            predictor.pair_power_w(a, b, setting)

    def test_feasible_settings_identical(
        self, predictor, cached_predictor, rodinia_jobs
    ):
        a, b = rodinia_jobs[0].uid, rodinia_jobs[4].uid
        assert cached_predictor.feasible_pair_settings(a, b, CAP_W) == \
            predictor.feasible_pair_settings(a, b, CAP_W)

    def test_delegated_identity(self, predictor, cached_predictor):
        assert cached_predictor.processor is predictor.processor
        assert cached_predictor.table is predictor.table
        assert cached_predictor.space is predictor.space

    def test_cache_populated(self, cached_predictor):
        assert cached_predictor.cache.stats.requests > 0
        assert len(cached_predictor.cache) > 0


class TestScheduleEvaluatorExact:
    def test_matches_predicted_makespan(self, predictor, rodinia_jobs):
        governor = ModelGovernor(predictor, CAP_W)
        evaluate = ScheduleEvaluator(predictor, governor)
        result = hcs_schedule(_ctx(predictor, rodinia_jobs))
        expected = predicted_makespan(result.schedule, predictor, governor)
        assert evaluate(result.schedule) == expected
        assert evaluate(result.schedule) == expected  # warm hit
        assert evaluate.cache.stats.hits >= 1

    def test_evaluate_all_matches_serial(self, predictor, rodinia_jobs):
        from repro.core.baselines import random_schedule

        governor = ModelGovernor(predictor, CAP_W)
        schedules = [
            random_schedule(rodinia_jobs, seed=s) for s in range(8)
        ]
        expected = [
            predicted_makespan(s, predictor, governor) for s in schedules
        ]
        evaluate = ScheduleEvaluator(predictor, governor)
        assert evaluate.evaluate_all(schedules) == expected


class TestCachedSearchesIdentical:
    """Cached vs uncached runs of every search produce identical schedules."""

    def test_hcs_plus(self, predictor, rodinia_jobs):
        shared = EvalCache()
        wrapped = CachingPredictor(predictor, cache=shared)
        evaluator = ScheduleEvaluator(wrapped, ModelGovernor(wrapped, CAP_W), shared)

        plain = hcs_schedule(_ctx(predictor, rodinia_jobs, seed=11), refine=True)
        cached = hcs_schedule(
            _ctx(wrapped, rodinia_jobs, seed=11, evaluator=evaluator), refine=True
        )
        assert plain.schedule == cached.schedule
        # repro: noqa REP003 -- byte-identical memoization contract
        assert plain.predicted_makespan_s == cached.predicted_makespan_s
        assert shared.stats.hits > 0

    def test_refinement(self, predictor, rodinia_jobs):
        governor = ModelGovernor(predictor, CAP_W)
        base = hcs_schedule(_ctx(predictor, rodinia_jobs)).schedule
        plain = refine_schedule(
            base, _ctx(predictor, rodinia_jobs, governor=governor, seed=5)
        )
        evaluator = ScheduleEvaluator(predictor, governor, EvalCache())
        cached = refine_schedule(
            base,
            _ctx(
                predictor,
                rodinia_jobs,
                governor=governor,
                evaluator=evaluator,
                seed=5,
            ),
        )
        assert plain == cached

    def test_genetic(self, predictor, rodinia_jobs):
        # Scalar search pinned on both sides: the caller-supplied scalar
        # evaluator cannot take the vectorized population path, and this
        # test is about caching, not about the search trajectory.
        cfg = GaConfig(population=12, generations=4)
        plain = genetic_schedule(
            _ctx(predictor, rodinia_jobs[:6], seed=3), config=cfg, vectorized=False
        )
        governor = ModelGovernor(predictor, CAP_W)
        evaluator = ScheduleEvaluator(predictor, governor, EvalCache())
        cached = genetic_schedule(
            _ctx(predictor, rodinia_jobs[:6], seed=3, evaluator=evaluator),
            config=cfg,
            vectorized=False,
        )
        assert plain[0] == cached[0]
        assert plain[1] == cached[1]

    def test_brute_force(self, predictor, rodinia_jobs):
        governor = ModelGovernor(predictor, CAP_W)
        jobs = rodinia_jobs[:4]

        def evaluate(s):
            return predicted_makespan(s, predictor, governor)

        plain = brute_force_best(jobs, evaluate)
        evaluator = ScheduleEvaluator(predictor, governor, EvalCache())
        cached = brute_force_best(jobs, evaluator)
        assert plain == cached


class TestDiskCacheRoundTrip:
    def test_characterize_disk_roundtrip(self, processor, space, tmp_path):
        cold = characterize_space(processor, disk_cache=tmp_path)
        warm = characterize_space(processor, disk_cache=tmp_path)
        assert fingerprint(cold) == fingerprint(space)
        assert fingerprint(warm) == fingerprint(space)
        assert any(tmp_path.iterdir())

    def test_profile_disk_roundtrip(self, processor, rodinia_jobs, table, tmp_path):
        cold = profile_workload(processor, rodinia_jobs, disk_cache=tmp_path)
        warm = profile_workload(processor, rodinia_jobs, disk_cache=tmp_path)
        assert fingerprint(cold) == fingerprint(table)
        assert fingerprint(warm) == fingerprint(table)

    def test_corrupt_entry_recomputes(self, processor, space, tmp_path):
        characterize_space(processor, disk_cache=tmp_path)
        for entry in tmp_path.iterdir():
            entry.write_bytes(b"not a pickle")
        again = characterize_space(processor, disk_cache=tmp_path)
        assert fingerprint(again) == fingerprint(space)
