"""Exactness of the tensor backend against the scalar reference chain.

The contract of :mod:`repro.perf.tensor` is *bitwise* equality — not
approximate agreement — for every query a scheduler can ask: degradations,
co-run times, pair power, cap-feasibility enumerations, best-solo picks,
and whole-schedule scores.  Hypothesis drives the checks across random job
sets, frequency settings, power caps, and schedule shapes; every assertion
is ``==`` on floats by design.
"""

from __future__ import annotations

import itertools

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
    LOCKSTEP_MIN_BATCH,
    BatchScheduleEvaluator,
    TensorModel,
    _grid_eval,
    tensorize,
)
from repro.workload.generator import random_workload
from tests.scalar import scalar_context

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
def tensor(scalar_predictor, jobs):
    model = tensorize(scalar_predictor, [j.uid for j in jobs])
    assert isinstance(model, TensorModel)
    return model


@pytest.fixture(scope="module")
def settings_list(processor):
    return list(processor.settings())


pair_idx = st.tuples(
    st.integers(0, N_JOBS - 1), st.integers(0, N_JOBS - 1)
)


def _levels(processor, kind):
    return processor.device(kind).domain.levels


class TestQueryExactness:
    """Each tensor cell equals the scalar query it stands for."""

    @HYPO
    @given(pair=pair_idx, s=st.integers(0, 159))
    def test_degradations_equal(
        self, scalar_predictor, tensor, jobs, settings_list, pair, s
    ):
        c, g = jobs[pair[0]].uid, jobs[pair[1]].uid
        i, j = tensor.index[c], tensor.index[g]
        assert (tensor.deg_c[i, j, s], tensor.deg_g[i, j, s]) == (
            scalar_predictor.degradations(c, g, settings_list[s])
        )

    @HYPO
    @given(pair=pair_idx, s=st.integers(0, 159))
    def test_corun_times_equal(
        self, scalar_predictor, tensor, jobs, settings_list, pair, s
    ):
        c, g = jobs[pair[0]].uid, jobs[pair[1]].uid
        i, j = tensor.index[c], tensor.index[g]
        # repro: noqa REP003 -- byte-identical backend contract
        assert (tensor.t_corun_c[i, j, s], tensor.t_corun_g[i, j, s]) == (
            scalar_predictor.corun_times(c, g, settings_list[s])
        )

    @HYPO
    @given(pair=pair_idx, s=st.integers(0, 159))
    def test_pair_power_equal(
        self, scalar_predictor, tensor, jobs, settings_list, pair, s
    ):
        c, g = jobs[pair[0]].uid, jobs[pair[1]].uid
        i, j = tensor.index[c], tensor.index[g]
        # repro: noqa REP003 -- byte-identical backend contract
        assert tensor.pair_power[i, j, s] == (
            scalar_predictor.pair_power_w(c, g, settings_list[s])
        )

    @HYPO
    @given(pair=pair_idx, cap=st.sampled_from(CAPS))
    def test_pair_feasibility_masks_equal(
        self, scalar_predictor, tensor, jobs, settings_list, pair, cap
    ):
        c, g = jobs[pair[0]].uid, jobs[pair[1]].uid
        ok = tensor.masks(cap).pair_ok[tensor.index[c], tensor.index[g]]
        assert [settings_list[k] for k in np.flatnonzero(ok)] == (
            scalar_predictor.feasible_pair_settings(c, g, cap)
        )

    @HYPO
    @given(
        i=st.integers(0, N_JOBS - 1),
        kind=st.sampled_from(list(DeviceKind)),
        cap=st.sampled_from(CAPS),
    )
    def test_solo_feasibility_and_best_solo_equal(
        self, scalar_predictor, tensor, jobs, processor, i, kind, cap
    ):
        uid = jobs[i].uid
        row = tensor.index[uid]
        masks = tensor.masks(cap)
        levels = _levels(processor, kind)
        assert [levels[k] for k in np.flatnonzero(masks.solo_ok[kind][row])] == (
            scalar_predictor.feasible_solo_levels(uid, kind, cap)
        )
        try:
            f, t = scalar_predictor.best_solo(uid, kind, cap)
        except InfeasibleCapError:
            assert not masks.best_solo_valid[kind][row]
            assert np.isinf(masks.best_solo_time[kind][row])
        else:
            assert masks.best_solo_valid[kind][row]
            assert levels[masks.best_solo_idx[kind][row]] == f
            # repro: noqa REP003 -- byte-identical backend contract
            assert masks.best_solo_time[kind][row] == t

    @HYPO
    @given(
        i=st.integers(0, N_JOBS - 1),
        kind=st.sampled_from(list(DeviceKind)),
        level=st.integers(0, 9),
    )
    def test_solo_lookups_equal(
        self, scalar_predictor, tensor, jobs, processor, i, kind, level
    ):
        uid = jobs[i].uid
        row = tensor.index[uid]
        f = _levels(processor, kind)[level]
        # repro: noqa REP003 -- byte-identical backend contract
        assert tensor.solo_time[kind][row, level] == (
            scalar_predictor.solo_time(uid, kind, f)
        )
        # repro: noqa REP003 -- byte-identical backend contract
        assert tensor.solo_chip_power[kind][row, level] == (
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
        return ctx, scalar_context(ctx)

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
        got = ctx_t.evaluator.evaluate_all(scheds)
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
    @pytest.mark.parametrize(
        "k", [LOCKSTEP_MIN_BATCH - 1, LOCKSTEP_MIN_BATCH]
    )
    def test_batch_sizes_around_the_lockstep_threshold(
        self, scalar_predictor, jobs, objective, k
    ):
        """A batch one short of ``LOCKSTEP_MIN_BATCH`` (per-schedule
        replays) and one at it (one lockstep sweep) score byte-identically
        to per-schedule replays and to scalar."""
        from repro.core.context import SchedulingContext
        from repro.core.schedule import CoSchedule

        orders = list(itertools.permutations(jobs))

        def schedule(r):
            # A distinct job order per schedule (720 of them) under four
            # queue shapes, half of them with a solo tail.
            order = orders[r]
            cut, tail = [
                (2, ((order[4], DeviceKind.CPU), (order[5], DeviceKind.GPU))),
                (2, ()),
                (3, ()),
                (1, ((order[5], DeviceKind.GPU),)),
            ][r % 4]
            end = len(order) - len(tail)
            return CoSchedule(
                cpu_queue=tuple(order[:cut]),
                gpu_queue=tuple(order[cut:end]),
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
        got = ev.evaluate_all(scheds)
        assert len({ev._key(s) for s in scheds}) == k
        # Smaller batches replay one at a time; the rest take the sweep.
        lockstep = k >= LOCKSTEP_MIN_BATCH
        assert ev.batch_stats["full_replays"] == (0 if lockstep else k)

        field = 0 if objective == "makespan" else 1
        per_schedule = [ev._indexed_replay(s)[field] for s in scheds]
        scalar = scalar_context(ctx).evaluator
        # repro: noqa REP003 -- byte-identical backend contract
        assert got == per_schedule == [scalar(s) for s in scheds]
