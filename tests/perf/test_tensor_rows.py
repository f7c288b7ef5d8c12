"""Tensor rows are distinct profiles: exactness when jobs share a program.

The tensor model keys its rows on profile *content*: every job of one
program reads the same row, and a predictor over equal profiles (a grown
table, a fresh profiling run) reuses the same model.  Every answer must
still equal the scalar :class:`~repro.model.predictor.CoRunPredictor` with
``==`` — through plain and node-scaled views, and for whole-schedule
replays against :func:`repro.core.schedule._replay`.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.api import dispatch
from repro.core.context import SchedulingContext
from repro.core.fleet import Node, node_predictor
from repro.core.genetic import GaConfig
from repro.core.schedule import _replay
from repro.errors import InfeasibleCapError
from repro.hardware.device import DeviceKind
from repro.model.characterize import characterize_staged_space
from repro.model.predictor import CoRunPredictor
from repro.model.profiler import ProfileTable, extend_table, profile_workload
from repro.perf.cache import EvalCache
from repro.perf.evaluator import INFEASIBLE
from repro.perf.tensor import MAX_TENSOR_ELEMENTS, BatchScheduleEvaluator, tensorize
from repro.util.rng import default_rng
from repro.workload.program import Job
from repro.workload.rodinia import rodinia_programs
from tests.scalar import scalar_context

CAPS = (9.0, 12.0, 15.0, 18.0)

HYPO = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

#: Program picks with repeats: each pick becomes one job.
picks_st = st.lists(st.integers(0, 7), min_size=2, max_size=9)


def _jobs(picks) -> list[Job]:
    programs = rodinia_programs()
    return [
        Job(uid=f"{programs[p].name}#{k}", profile=programs[p])
        for k, p in enumerate(picks)
    ]


def _grown_table(processor, jobs) -> ProfileTable:
    """The service's table: one extension, sweeps shared by content."""
    empty = ProfileTable(processor=processor, jobs=(), _profiles={})
    return extend_table(empty, jobs, cache=EvalCache())


#: Two ways to profile repeats of a program: the online table shares one
#: profile object per program; a batch profiling run builds equal content
#: in a distinct object per job.
TABLES = {
    "content-cache": _grown_table,
    "separate": profile_workload,
}


@pytest.fixture(scope="module")
def staged_space(processor):
    return characterize_staged_space(processor)


@pytest.fixture(scope="module", params=["plain", "staged"])
def model_space(request, space, staged_space):
    return space if request.param == "plain" else staged_space


@pytest.fixture(params=sorted(TABLES))
def make_table(request):
    return TABLES[request.param]


def _assert_queries_equal(scalar, tensor, uids, processor, s, cap) -> None:
    """Every cell the schedulers read equals the scalar answer it stands for."""
    settings = list(processor.settings())
    setting = settings[s]
    masks = tensor.masks(cap)
    for c in uids:
        for g in uids:
            i, j = tensor.index[c], tensor.index[g]
            assert (tensor.deg_c[i, j, s], tensor.deg_g[i, j, s]) == (
                scalar.degradations(c, g, setting)
            )
            # repro: noqa REP003 -- byte-identical backend contract
            assert (tensor.t_corun_c[i, j, s], tensor.t_corun_g[i, j, s]) == (
                scalar.corun_times(c, g, setting)
            )
            # repro: noqa REP003 -- byte-identical backend contract
            assert tensor.pair_power[i, j, s] == scalar.pair_power_w(c, g, setting)
            assert [settings[k] for k in np.flatnonzero(masks.pair_ok[i, j])] == (
                scalar.feasible_pair_settings(c, g, cap)
            )
    for uid in uids:
        i = tensor.index[uid]
        for kind in DeviceKind:
            levels = processor.device(kind).domain.levels
            assert [levels[k] for k in np.flatnonzero(masks.solo_ok[kind][i])] == (
                scalar.feasible_solo_levels(uid, kind, cap)
            )
            try:
                f, t = scalar.best_solo(uid, kind, cap)
            except InfeasibleCapError:
                assert not masks.best_solo_valid[kind][i]
                assert np.isinf(masks.best_solo_time[kind][i])
            else:
                assert masks.best_solo_valid[kind][i]
                assert levels[masks.best_solo_idx[kind][i]] == f
                # repro: noqa REP003 -- byte-identical backend contract
                assert masks.best_solo_time[kind][i] == t
            k = s % len(levels)
            # repro: noqa REP003 -- byte-identical backend contract
            assert tensor.solo_time[kind][i, k] == scalar.solo_time(uid, kind, levels[k])
            # repro: noqa REP003 -- byte-identical backend contract
            assert tensor.solo_chip_power[kind][i, k] == (
                scalar.solo_power_w(uid, kind, levels[k])
            )


class TestDuplicateProfiles:
    @HYPO
    @given(picks=picks_st, s=st.integers(0, 159), cap=st.sampled_from(CAPS))
    def test_queries_equal_scalar(
        self, processor, model_space, make_table, picks, s, cap
    ):
        jobs = _jobs(picks)
        uids = [j.uid for j in jobs]
        scalar = CoRunPredictor(processor, make_table(processor, jobs), model_space)
        tensor = tensorize(scalar, uids)
        assert tensor is not None
        assert tensor.n_rows == len(set(picks))
        _assert_queries_equal(scalar, tensor, uids, processor, s, cap)

    @HYPO
    @given(picks=picks_st, s=st.integers(0, 159), cap=st.sampled_from(CAPS))
    def test_node_scaled_queries_equal_scalar(
        self, processor, space, make_table, picks, s, cap
    ):
        jobs = _jobs(picks)
        uids = [j.uid for j in jobs]
        base = CoRunPredictor(processor, make_table(processor, jobs), space)
        scalar = node_predictor(base, Node("hot", speed_scale=0.8, power_scale=1.25))
        tensor = tensorize(scalar, uids)
        assert tensor is not None and tensor.node_name == "hot"
        _assert_queries_equal(scalar, tensor, uids, processor, s, cap)

    @HYPO
    @given(
        picks=picks_st,
        seed=st.integers(0, 2**31 - 1),
        cap=st.sampled_from((12.0, 15.0, 18.0)),
        scaled=st.booleans(),
    )
    def test_table_replay_equals_scalar_replay(
        self, processor, space, make_table, picks, seed, cap, scaled
    ):
        from repro.core.baselines import random_schedule

        jobs = _jobs(picks)
        predictor = CoRunPredictor(processor, make_table(processor, jobs), space)
        if scaled:
            predictor = node_predictor(predictor, Node("slow", speed_scale=0.7))
        ctx = SchedulingContext(jobs=jobs, cap_w=cap, predictor=predictor, seed=seed)
        ref = scalar_context(ctx)
        sched = random_schedule(ref)
        try:
            expected = _replay(sched, ref.predictor, ref.governor, track_energy=True)
        except InfeasibleCapError:
            assert ctx.evaluator._indexed_replay(sched) == INFEASIBLE
            return
        # repro: noqa REP003 -- byte-identical backend contract
        assert ctx.evaluator._indexed_replay(sched) == expected

    def test_equal_profiles_share_one_model(self, processor, space):
        """A fresh predictor over equal content reuses the arrays."""
        jobs = _jobs([0, 1, 1, 2])
        uids = [j.uid for j in jobs]
        first = tensorize(
            CoRunPredictor(processor, profile_workload(processor, jobs), space), uids
        )
        again = tensorize(
            CoRunPredictor(processor, _grown_table(processor, jobs), space), uids
        )
        assert again.pair_power is first.pair_power
        assert again.index == first.index
        assert first.index[uids[1]] == first.index[uids[2]]

    @pytest.mark.parametrize("kind", list(DeviceKind))
    @pytest.mark.parametrize(
        "field", ["time_s", "demand_gbps", "own_power_w", "chip_power_w"]
    )
    def test_one_ulp_apart_is_another_row(self, processor, space, kind, field):
        """Profiles differing in any array element never share a row."""
        jobs = _jobs([3, 3])
        table = profile_workload(processor, jobs)
        profiles = dict(table._profiles)
        prof = profiles[(jobs[1].uid, kind)]
        values = getattr(prof, field).copy()
        values[0] = np.nextafter(values[0], np.inf)
        profiles[(jobs[1].uid, kind)] = dataclasses.replace(prof, **{field: values})
        table = dataclasses.replace(table, _profiles=profiles)
        scalar = CoRunPredictor(processor, table, space)
        uids = [j.uid for j in jobs]
        tensor = tensorize(scalar, uids)
        assert tensor.n_rows == 2
        for s in (0, 159):
            _assert_queries_equal(scalar, tensor, uids, processor, s, 15.0)


class TestNoSizeCliff:
    """The size limit counts distinct profiles, not jobs."""

    @pytest.fixture(scope="class")
    def many(self, processor, space):
        rng = default_rng(7)
        jobs = _jobs(int(p) for p in rng.integers(0, 8, 200))
        table = _grown_table(processor, jobs)
        return jobs, CoRunPredictor(processor, table, space)

    def test_two_hundred_jobs_tensorize(self, many):
        jobs, predictor = many
        # One row per job would be far over the limit.
        assert 200 * 200 * predictor.processor.n_settings > MAX_TENSOR_ELEMENTS
        tensor = tensorize(predictor, [j.uid for j in jobs])
        assert tensor is not None
        assert tensor.n_rows == 8
        assert set(tensor.index) == {j.uid for j in jobs}

    def test_two_hundred_job_schedules_score_identically(self, many):
        from repro.core.baselines import random_schedule

        jobs, predictor = many
        ctx = SchedulingContext(jobs=jobs, cap_w=15.0, predictor=predictor)
        assert isinstance(ctx.evaluator, BatchScheduleEvaluator)
        ref = scalar_context(ctx)
        scheds = [random_schedule(ref.with_seed(s)) for s in range(6)]
        # Six schedules take the lockstep sweep; each also replays alone.
        # repro: noqa REP003 -- byte-identical backend contract
        assert ctx.evaluator.evaluate_all(scheds) == [ref.evaluator(s) for s in scheds]
        for s in scheds:
            # repro: noqa REP003 -- byte-identical backend contract
            assert ctx.metrics(s) == ref.metrics(s)

    @pytest.mark.parametrize(
        "method, opts",
        [
            ("hcs+", {"vectorized": False}),
            (
                "genetic",
                {"vectorized": False, "config": GaConfig(population=8, generations=3)},
            ),
        ],
    )
    def test_search_results_byte_identical(self, many, method, opts):
        """Scalar search on both paths: same schedule and scores.

        The scalar path's cost grows with the job count, so the search
        runs on the first 24 jobs (each program about three times).
        """
        jobs, predictor = many
        jobs = jobs[:24]
        ctx = SchedulingContext(jobs=jobs, cap_w=15.0, predictor=predictor, seed=3)
        got = {
            "tensor": dispatch(ctx, method, **opts),
            "scalar": dispatch(scalar_context(ctx), method, **opts),
        }

        def key(result):
            sched = result.schedule
            return (
                tuple(j.uid for j in sched.cpu_queue),
                tuple(j.uid for j in sched.gpu_queue),
                tuple((j.uid, kind) for j, kind in sched.solo_tail),
                result.predicted_makespan_s,
                result.predicted_score,
            )

        assert key(got["tensor"]) == key(got["scalar"])

    @pytest.mark.parametrize("method", ["hcs+", "genetic"])
    def test_vectorized_search_keeps_every_job(self, many, method):
        """Jobs sharing a row stay distinct through the population paths."""
        jobs, predictor = many
        jobs = jobs[:48]
        ctx = SchedulingContext(jobs=jobs, cap_w=15.0, predictor=predictor, seed=5)
        result = dispatch(ctx, method)
        assert ctx.evaluator.batch_stats["population_calls"] > 0
        sched = result.schedule
        placed = [j.uid for j in (*sched.cpu_queue, *sched.gpu_queue)]
        placed += [j.uid for j, _ in sched.solo_tail]
        assert sorted(placed) == sorted(j.uid for j in jobs)
        # repro: noqa REP003 -- byte-identical backend contract
        assert result.predicted_makespan_s == scalar_context(ctx).evaluator(sched)
