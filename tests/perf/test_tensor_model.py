"""Exactness of the tensor backend against the scalar reference chain.

The contract of :mod:`repro.perf.tensor` is *bitwise* equality — not
approximate agreement — for every query a scheduler can ask: degradations,
co-run times, pair power, cap-feasibility enumerations, best-solo picks,
and whole-schedule scores.  Hypothesis drives the checks across random job
sets, frequency settings, power caps, and schedule shapes; every assertion
is ``==`` on floats by design.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import InfeasibleCapError
from repro.hardware.calibration import make_ivy_bridge
from repro.hardware.device import DeviceKind
from repro.model.characterize import characterize_space, characterize_staged_space
from repro.model.predictor import CoRunPredictor
from repro.model.profiler import profile_workload
from repro.perf.tensor import (
    BatchScheduleEvaluator,
    TensorBackedPredictor,
    _grid_eval,
    tensorize,
)
from repro.workload.generator import random_workload

N_JOBS = 6
CAPS = (9.0, 11.0, 13.0, 15.0, 16.0, 18.0, 25.0)

HYPO = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def processor():
    return make_ivy_bridge()


@pytest.fixture(scope="module")
def jobs(processor):
    return random_workload(N_JOBS, seed=11)


@pytest.fixture(scope="module")
def table(processor, jobs):
    return profile_workload(processor, jobs)


@pytest.fixture(scope="module", params=["plain", "staged"])
def scalar_predictor(request, processor, table):
    """The reference predictor over a plain and a staged space."""
    if request.param == "plain":
        space = characterize_space(processor)
    else:
        space = characterize_staged_space(processor)
    return CoRunPredictor(processor, table, space)


@pytest.fixture(scope="module")
def tensor_predictor(scalar_predictor, jobs):
    wrapped = tensorize(scalar_predictor, [j.uid for j in jobs])
    assert isinstance(wrapped, TensorBackedPredictor)
    return wrapped


@pytest.fixture(scope="module")
def settings_list(processor):
    return list(processor.settings())


pair_idx = st.tuples(
    st.integers(0, N_JOBS - 1), st.integers(0, N_JOBS - 1)
)


class TestQueryExactness:
    @HYPO
    @given(pair=pair_idx, s=st.integers(0, 159))
    def test_degradations_equal(
        self, scalar_predictor, tensor_predictor, jobs, settings_list, pair, s
    ):
        c, g = jobs[pair[0]].uid, jobs[pair[1]].uid
        setting = settings_list[s]
        assert tensor_predictor.degradations(c, g, setting) == (
            scalar_predictor.degradations(c, g, setting)
        )

    @HYPO
    @given(pair=pair_idx, s=st.integers(0, 159))
    def test_corun_times_equal(
        self, scalar_predictor, tensor_predictor, jobs, settings_list, pair, s
    ):
        c, g = jobs[pair[0]].uid, jobs[pair[1]].uid
        setting = settings_list[s]
        # repro: noqa REP003 -- byte-identical backend contract
        assert tensor_predictor.corun_times(c, g, setting) == (
            scalar_predictor.corun_times(c, g, setting)
        )

    @HYPO
    @given(pair=pair_idx, s=st.integers(0, 159))
    def test_pair_power_equal(
        self, scalar_predictor, tensor_predictor, jobs, settings_list, pair, s
    ):
        c, g = jobs[pair[0]].uid, jobs[pair[1]].uid
        setting = settings_list[s]
        # repro: noqa REP003 -- byte-identical backend contract
        assert tensor_predictor.pair_power_w(c, g, setting) == (
            scalar_predictor.pair_power_w(c, g, setting)
        )

    @HYPO
    @given(pair=pair_idx, cap=st.sampled_from(CAPS))
    def test_pair_feasibility_masks_equal(
        self, scalar_predictor, tensor_predictor, jobs, pair, cap
    ):
        c, g = jobs[pair[0]].uid, jobs[pair[1]].uid
        assert tensor_predictor.feasible_pair_settings(c, g, cap) == (
            scalar_predictor.feasible_pair_settings(c, g, cap)
        )

    @HYPO
    @given(
        i=st.integers(0, N_JOBS - 1),
        kind=st.sampled_from(list(DeviceKind)),
        cap=st.sampled_from(CAPS),
    )
    def test_solo_feasibility_and_best_solo_equal(
        self, scalar_predictor, tensor_predictor, jobs, i, kind, cap
    ):
        uid = jobs[i].uid
        assert tensor_predictor.feasible_solo_levels(uid, kind, cap) == (
            scalar_predictor.feasible_solo_levels(uid, kind, cap)
        )
        try:
            expected = scalar_predictor.best_solo(uid, kind, cap)
        except InfeasibleCapError as exc:
            with pytest.raises(InfeasibleCapError) as got:
                tensor_predictor.best_solo(uid, kind, cap)
            assert str(got.value) == str(exc)
        else:
            assert tensor_predictor.best_solo(uid, kind, cap) == expected

    @HYPO
    @given(
        i=st.integers(0, N_JOBS - 1),
        kind=st.sampled_from(list(DeviceKind)),
        level=st.integers(0, 9),
    )
    def test_solo_lookups_equal(
        self, scalar_predictor, tensor_predictor, jobs, processor, i, kind, level
    ):
        uid = jobs[i].uid
        domain = (
            processor.cpu.domain if kind is DeviceKind.CPU else processor.gpu.domain
        )
        f = domain.levels[level]
        # repro: noqa REP003 -- byte-identical backend contract
        assert tensor_predictor.solo_time(uid, kind, f) == (
            scalar_predictor.solo_time(uid, kind, f)
        )
        # repro: noqa REP003 -- byte-identical backend contract
        assert tensor_predictor.solo_power_w(uid, kind, f) == (
            scalar_predictor.solo_power_w(uid, kind, f)
        )


class TestGridEval:
    @HYPO
    @given(
        points=st.lists(
            st.tuples(
                st.floats(0.0, 40.0, allow_nan=False),
                st.floats(0.0, 40.0, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_matches_scalar_bilinear(self, scalar_predictor, points):
        """Vectorized grid evaluation equals the scalar call pointwise,
        including at clipped and off-grid coordinates."""
        space = scalar_predictor.space
        grid = (
            space.cpu_grid
            if hasattr(space, "cpu_grid")
            else space.anchors[0].cpu_grid
        )
        x = np.array([p[0] for p in points])
        y = np.array([p[1] for p in points])
        got = _grid_eval(grid, x, y)
        for k in range(len(points)):
            assert float(got[k]) == grid(float(x[k]), float(y[k]))


class TestScheduleScores:
    def _contexts(self, scalar_predictor, jobs, cap, seed=0):
        from repro.core.context import SchedulingContext

        ctx = SchedulingContext(
            jobs=jobs, cap_w=cap, predictor=scalar_predictor, seed=seed
        )
        return ctx, ctx.with_backend("scalar")

    @HYPO
    @given(seed=st.integers(0, 2**31 - 1), cap=st.sampled_from((13.0, 15.0, 18.0)))
    def test_random_schedules_score_identically(
        self, scalar_predictor, jobs, seed, cap
    ):
        from repro.core.baselines import random_schedule

        ctx_t, ctx_s = self._contexts(scalar_predictor, jobs, cap, seed=seed)
        assert isinstance(ctx_t.evaluator, BatchScheduleEvaluator)
        sched = random_schedule(ctx_s.with_seed(seed))
        # repro: noqa REP003 -- byte-identical backend contract
        assert ctx_t.evaluator(sched) == ctx_s.evaluator(sched)
        # repro: noqa REP003 -- byte-identical backend contract
        assert ctx_t.metrics(sched) == ctx_s.metrics(sched)

    @HYPO
    @given(
        seeds=st.lists(st.integers(0, 2**31 - 1), min_size=2, max_size=16),
        cap=st.sampled_from((13.0, 15.0)),
    )
    def test_batched_scores_equal_serial_scalar(
        self, scalar_predictor, jobs, seeds, cap
    ):
        """The lockstep batch sweep equals one-at-a-time scalar scoring."""
        from repro.core.baselines import random_schedule

        ctx_t, ctx_s = self._contexts(scalar_predictor, jobs, cap)
        scheds = [random_schedule(ctx_s.with_seed(s)) for s in seeds]
        got = ctx_t.evaluator.evaluate_batch(scheds)
        want = [ctx_s.evaluator(s) for s in scheds]
        # repro: noqa REP003 -- byte-identical backend contract
        assert got == want

    @HYPO
    @given(seed=st.integers(0, 2**31 - 1))
    def test_mutation_chain_scores_equal_scalar(
        self, scalar_predictor, jobs, seed
    ):
        """Mutation chains (the refine move shapes) score byte-identically
        on the tensor and scalar backends."""
        from repro.core.baselines import random_schedule
        from repro.util.rng import default_rng

        ctx_t, ctx_s = self._contexts(scalar_predictor, jobs, 15.0)
        rng = default_rng(seed)
        sched = random_schedule(ctx_s.with_seed(seed))
        for _ in range(12):
            # repro: noqa REP003 -- byte-identical backend contract
            assert ctx_t.evaluator(sched) == ctx_s.evaluator(sched)
            cpu, gpu = list(sched.cpu_queue), list(sched.gpu_queue)
            move = rng.integers(0, 3)
            if move == 0 and len(cpu) >= 2:          # adjacent swap
                k = int(rng.integers(0, len(cpu) - 1))
                cpu[k], cpu[k + 1] = cpu[k + 1], cpu[k]
            elif move == 1 and cpu and gpu:          # cross swap
                i = int(rng.integers(0, len(cpu)))
                j = int(rng.integers(0, len(gpu)))
                cpu[i], gpu[j] = gpu[j], cpu[i]
            elif cpu:                                # tail migration
                gpu.append(cpu.pop())
            sched = sched.with_queues(tuple(cpu), tuple(gpu))

    @pytest.mark.parametrize("objective", ["makespan", "energy"])
    @pytest.mark.parametrize("k", [4, 5])
    def test_batch_sizes_around_the_lockstep_threshold(
        self, scalar_predictor, jobs, objective, k
    ):
        """Batches of 4 (per-schedule replays) and 5 (one lockstep sweep)
        score byte-identically to per-schedule replays and to scalar."""
        from repro.core.context import SchedulingContext
        from repro.core.schedule import CoSchedule

        def schedule(r):
            order = jobs[r:] + jobs[:r]
            tail = (
                ((order[4], DeviceKind.CPU), (order[5], DeviceKind.GPU))
                if r % 2 == 0 else ()
            )
            return CoSchedule(
                cpu_queue=tuple(order[:2]),
                gpu_queue=tuple(order[2:4] if tail else order[2:]),
                solo_tail=tail,
            )

        scheds = [schedule(r) for r in range(k)]
        assert any(s.solo_tail for s in scheds)
        ctx = SchedulingContext(
            jobs=jobs, cap_w=15.0, predictor=scalar_predictor,
            objective=objective,
        )
        ev = ctx.evaluator
        assert isinstance(ev, BatchScheduleEvaluator)
        got = ev.evaluate_batch(scheds)
        # Up to 4 schedules replay one at a time; 5 take the lockstep sweep.
        assert ev.batch_stats["full_replays"] == (k if k <= 4 else 0)

        field = 0 if objective == "makespan" else 1
        per_schedule = [ev._indexed_replay(s)[field] for s in scheds]
        scalar = ctx.with_backend("scalar").evaluator
        # repro: noqa REP003 -- byte-identical backend contract
        assert got == per_schedule == [scalar(s) for s in scheds]
