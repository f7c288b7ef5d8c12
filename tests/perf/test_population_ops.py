"""Property tests: vectorized population kernels vs the scalar operators.

The vectorized GA (``repro.perf.population``) claims that, *given the same
random decisions*, every batched operator produces exactly the genome its
scalar ``GeneticScheduler`` counterpart produces — the batched loop merely
draws those decisions from one vectorized stream.  These tests pin that
claim per operator (crossover key construction, mutation moves, tournament
first-min selection, decode), verify the draw laws the vectorized stream
relies on, and check that population-batch scores are byte-identical to
per-schedule tensor evaluation of the same decoded schedules.

The kernels rank rows without sorting them; the ``stable_*`` referees
below are their stable-argsort formulations, and the kernels must equal
them exactly, ties included, up to the shapes the search workloads run
(n = 64 genes, populations of 256).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import population as popkit
from repro.util.rng import default_rng

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_sizes = st.integers(2, 64)


@st.composite
def populations(draw):
    """Two random parent populations, a crossover mask and a job index:
    widths up to 256 rows, genomes of 1 to 64 genes."""
    size = draw(st.integers(1, 256))
    n = draw(st.integers(1, 64))
    rng = default_rng(draw(st.integers(0, 2**32 - 1)))
    a_place, a_prio = popkit.random_population(rng, size, n)
    b_place, b_prio = popkit.random_population(rng, size, n)
    mask = rng.random((size, n)) < 0.5
    job_index = rng.permutation(n).astype(np.int64) + 7
    return a_place, a_prio, b_place, b_prio, mask, job_index


@st.composite
def genome_pairs(draw):
    """Two parent genomes plus a crossover mask, all the same width."""
    n = draw(_sizes)
    rng = default_rng(draw(st.integers(0, 2**32 - 1)))
    a_prio = rng.permutation(n).astype(np.int64)
    b_prio = rng.permutation(n).astype(np.int64)
    a_place = rng.random(n) < 0.5
    b_place = rng.random(n) < 0.5
    mask = rng.random(n) < 0.5
    return a_place, a_prio, b_place, b_prio, mask


def scalar_order_crossover(a_priority, b_priority):
    """The scalar ``GeneticScheduler._crossover`` priority rule, verbatim:
    keep a's relative order for the indices holding a's n//2 smallest
    priorities, fill the rest in b's order."""
    n = len(a_priority)
    child = np.empty(n, dtype=np.int64)
    a_rank = np.argsort(a_priority, kind="stable")
    b_rank = np.argsort(b_priority, kind="stable")
    picked = set(int(i) for i in a_rank[: n // 2])
    sequence = [int(i) for i in a_rank[: n // 2]] + [
        int(i) for i in b_rank if int(i) not in picked
    ]
    for rank, idx in enumerate(sequence):
        child[idx] = rank
    return child


# ----------------------------------------------------------------------
# Referees: the kernels as per-row stable argsorts
# ----------------------------------------------------------------------
def stable_tournament_picks(rng, size, population, k):
    keys = rng.random((size, population))
    return np.argsort(keys, axis=1, kind="stable")[:, :k]


def stable_order_crossover(a_placement, a_priority, b_placement, b_priority,
                           mask):
    n = a_priority.shape[1]
    placement = np.where(mask, a_placement, b_placement)
    key = np.where(a_priority < n // 2, a_priority, n + b_priority)
    order = np.argsort(key, axis=1, kind="stable")
    priority = np.empty_like(a_priority)
    np.put_along_axis(
        priority,
        order,
        np.broadcast_to(np.arange(n, dtype=np.int64), order.shape),
        axis=1,
    )
    return placement, priority


def stable_decode_queues(placement, priority, job_index):
    size, n = priority.shape
    order = np.argsort(priority, axis=1, kind="stable")
    placed = np.take_along_axis(placement, order, axis=1)
    jobs = job_index[order]
    len_c = placed.sum(axis=1, dtype=np.int64)
    len_g = n - len_c
    pos_c = np.cumsum(placed, axis=1) - 1
    pos_g = np.cumsum(~placed, axis=1) - 1
    Qc = np.full((size, n), -1, dtype=np.int64)
    Qg = np.full((size, n), -1, dtype=np.int64)
    rows, cols = np.nonzero(placed)
    Qc[rows, pos_c[rows, cols]] = jobs[rows, cols]
    rows, cols = np.nonzero(~placed)
    Qg[rows, pos_g[rows, cols]] = jobs[rows, cols]
    return Qc, len_c, Qg, len_g


class _PlantedKeys:
    """A generator stub whose ``random`` returns fixed keys (copies, since
    the kernel may write into them)."""

    def __init__(self, keys):
        self.keys = np.asarray(keys, dtype=float)

    def random(self, shape):
        assert shape == self.keys.shape
        return self.keys.copy()


def _assert_arrays_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


class TestKernelsEqualStableArgsortReferees:
    @settings(deadline=None)
    @given(populations())
    def test_order_crossover(self, pops):
        a_place, a_prio, b_place, b_prio, mask, _ = pops
        args = (a_place, a_prio, b_place, b_prio, mask)
        _assert_arrays_identical(
            popkit.order_crossover(*args), stable_order_crossover(*args)
        )

    @settings(deadline=None)
    @given(populations())
    def test_decode_queues(self, pops):
        place, prio, *_, job_index = pops
        _assert_arrays_identical(
            popkit.decode_queues(place, prio, job_index),
            stable_decode_queues(place, prio, job_index),
        )

    @pytest.mark.parametrize("size, n", [
        (1, 1), (1, 2), (1, 64), (256, 1), (256, 2), (256, 64), (124, 56),
    ])
    def test_crossover_and_decode_at_edge_shapes(self, size, n):
        rng = default_rng(size * 100 + n)
        a_place, a_prio = popkit.random_population(rng, size, n)
        b_place, b_prio = popkit.random_population(rng, size, n)
        mask = rng.random((size, n)) < 0.5
        args = (a_place, a_prio, b_place, b_prio, mask)
        _assert_arrays_identical(
            popkit.order_crossover(*args), stable_order_crossover(*args)
        )
        job_index = np.arange(n, dtype=np.int64)[::-1].copy()
        _assert_arrays_identical(
            popkit.decode_queues(a_place, a_prio, job_index),
            stable_decode_queues(a_place, a_prio, job_index),
        )

    @settings(deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 512), st.integers(1, 256)
    )
    def test_tournament_picks_on_random_keys(self, seed, size, population):
        k = min(3, population)
        got = popkit.tournament_picks(default_rng(seed), size, population, k)
        want = stable_tournament_picks(default_rng(seed), size, population, k)
        _assert_arrays_identical((got,), (want,))

    @pytest.mark.parametrize("row, picks", [
        # ties inside the first k
        ([0.5, 0.1, 0.1, 0.3, 0.9], [1, 2, 3]),
        ([0.2, 0.2, 0.2, 0.7], [0, 1, 2]),
        # ties across the k-th boundary: the earliest columns win
        ([0.6, 0.1, 0.4, 0.4, 0.4], [1, 2, 3]),
        ([0.4, 0.9, 0.0, 0.4, 0.4, 0.0], [2, 5, 0]),
        # every key equal
        ([0.25] * 6, [0, 1, 2]),
    ])
    def test_tournament_picks_on_planted_ties(self, row, picks):
        keys = np.array([row, row[::-1]])
        got = popkit.tournament_picks(_PlantedKeys(keys), *keys.shape, 3)
        want = stable_tournament_picks(_PlantedKeys(keys), *keys.shape, 3)
        _assert_arrays_identical((got,), (want,))
        assert got[0].tolist() == picks

    @settings(deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 64), st.integers(1, 256),
        st.integers(1, 4),
    )
    def test_tournament_picks_on_dense_ties(self, seed, size, population,
                                            levels):
        """Keys from a handful of levels tie everywhere, at every k."""
        rng = default_rng(seed)
        keys = rng.integers(levels, size=(size, population)) / levels
        k = min(3, population)
        got = popkit.tournament_picks(_PlantedKeys(keys), size, population, k)
        want = stable_tournament_picks(
            _PlantedKeys(keys), size, population, k
        )
        _assert_arrays_identical((got,), (want,))


class TestCrossover:
    @given(genome_pairs())
    def test_matches_scalar_rule(self, parents):
        a_place, a_prio, b_place, b_prio, mask = parents
        place, prio = popkit.order_crossover(
            a_place[None], a_prio[None], b_place[None], b_prio[None],
            mask[None],
        )
        assert np.array_equal(place[0], np.where(mask, a_place, b_place))
        assert np.array_equal(prio[0], scalar_order_crossover(a_prio, b_prio))

    @given(genome_pairs())
    def test_child_priority_is_a_permutation(self, parents):
        a_place, a_prio, b_place, b_prio, mask = parents
        _, prio = popkit.order_crossover(
            a_place[None], a_prio[None], b_place[None], b_prio[None],
            mask[None],
        )
        assert sorted(prio[0]) == list(range(len(a_prio)))


class TestMutation:
    @given(
        genome_pairs(),
        st.booleans(), st.integers(0, 63),
        st.booleans(), st.integers(0, 63), st.integers(0, 62),
    )
    def test_matches_scalar_moves(self, parents, flip, fc, swap, si, off):
        """Given the same decisions, mutation equals the scalar ``_mutate``:
        an optional single placement-bit flip plus an optional single
        priority pair swap."""
        place, prio = parents[0], parents[1]
        n = len(prio)
        fc, si = fc % n, si % n
        sj = (si + 1 + off % (n - 1)) % n
        got_place, got_prio = popkit.mutate_population(
            place[None], prio[None],
            np.array([flip]), np.array([fc]),
            np.array([swap]), np.array([si]), np.array([sj]),
        )
        want_place, want_prio = place.copy(), prio.copy()
        if flip:
            want_place[fc] ^= True
        if swap:
            want_prio[si], want_prio[sj] = want_prio[sj], want_prio[si]
        assert np.array_equal(got_place[0], want_place)
        assert np.array_equal(got_prio[0], want_prio)
        # Parents stay untouched (operators copy).
        assert np.array_equal(place, parents[0])
        assert np.array_equal(prio, parents[1])

    def test_swap_pair_law_is_uniform_over_ordered_pairs(self):
        """The swap pair ``(i, (i+1+offset) % n)`` hits every ordered
        distinct pair exactly once as (i, offset) sweep their ranges —
        the same law as the scalar ``rng.choice(n, 2, replace=False)``."""
        n = 7
        seen = set()
        for i in range(n):
            for off in range(n - 1):
                j = (i + 1 + off) % n
                assert j != i
                seen.add((i, j))
        assert len(seen) == n * (n - 1)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    def test_draws_are_well_formed(self, seed, n):
        rng = default_rng(seed)
        flip_r, flip_c, swap_r, swap_i, swap_j = popkit.mutation_draws(
            rng, 32, n, 0.5
        )
        assert flip_c.max() < n and flip_c.min() >= 0
        assert np.all(swap_i != swap_j)
        assert swap_j.max() < n and swap_j.min() >= 0

    def test_no_swaps_for_single_gene(self):
        rng = default_rng(0)
        _, _, swap_rows, _, _ = popkit.mutation_draws(rng, 16, 1, 1.0)
        assert not swap_rows.any()


class TestTournament:
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(0, 100), min_size=4, max_size=12),
    )
    def test_winner_is_first_minimum(self, seed, fitness):
        """Equals the scalar ``min(picks, key=fitness)``: the lowest
        fitness among the picks, earliest pick on ties."""
        fitness = np.array(fitness)
        rng = default_rng(seed)
        picks = popkit.tournament_picks(rng, 5, len(fitness), 3)
        winners = popkit.tournament_winners(fitness, picks)
        for row, winner in zip(picks, winners):
            best = min(fitness[row])
            assert fitness[winner] == best
            # first-min tie-break: no earlier pick has the same fitness
            first = next(int(i) for i in row if fitness[i] == best)
            assert winner == first

    @given(st.integers(0, 2**32 - 1), st.integers(3, 256))
    def test_picks_are_distinct_subsets(self, seed, population):
        rng = default_rng(seed)
        k = min(3, population)
        picks = popkit.tournament_picks(rng, 8, population, k)
        assert picks.shape == (8, k)
        for row in picks:
            assert len(set(row.tolist())) == k
            assert row.min() >= 0 and row.max() < population


class TestDecode:
    @given(genome_pairs())
    def test_matches_scalar_decode(self, parents):
        """Row decode equals the scalar ``_decode``: jobs stable-sorted by
        priority, split by placement (True -> CPU)."""
        place, prio = parents[0], parents[1]
        n = len(prio)
        job_index = np.arange(10, 10 + n, dtype=np.int64)
        Qc, len_c, Qg, len_g = popkit.decode_queues(
            place[None], prio[None], job_index
        )
        order = np.argsort(prio, kind="stable")
        cpu = [int(job_index[i]) for i in order if place[i]]
        gpu = [int(job_index[i]) for i in order if not place[i]]
        assert int(len_c[0]) == len(cpu) and int(len_g[0]) == len(gpu)
        assert Qc[0, : len(cpu)].tolist() == cpu
        assert Qg[0, : len(gpu)].tolist() == gpu
        assert np.all(Qc[0, len(cpu):] == -1)
        assert np.all(Qg[0, len(gpu):] == -1)


class TestPopulationScoresByteIdentical:
    @pytest.fixture(scope="class")
    def ctx(self, predictor, rodinia_jobs):
        from repro.core.context import SchedulingContext

        return SchedulingContext(
            jobs=rodinia_jobs, cap_w=15.0, predictor=predictor,
        )

    @pytest.mark.parametrize("objective", [
        "makespan", "energy", "edp", "flow_time", "makespan_energy",
    ])
    def test_batch_scores_equal_per_schedule_scores(self, ctx, objective):
        """``score_population`` lanes are byte-identical to per-schedule
        tensor evaluation of the same decoded schedules, on every
        objective."""
        from repro.core.schedule import CoSchedule

        octx = ctx.with_objective(objective)
        ev = octx.evaluator
        jobs = list(octx.jobs)
        n = len(jobs)
        rng = default_rng(99)
        placement, priority = popkit.random_population(rng, 24, n)
        job_index = np.array(
            [ev.tensor.index[j.uid] for j in jobs], dtype=np.int64
        )
        Qc, len_c, Qg, len_g = popkit.decode_queues(
            placement, priority, job_index
        )
        scores, mk, en, fl, bad = ev.score_population(Qc, len_c, Qg, len_g)
        assert not bad.any()
        for k in range(placement.shape[0]):
            order = np.argsort(priority[k], kind="stable")
            cpu = tuple(jobs[i] for i in order if placement[k, i])
            gpu = tuple(jobs[i] for i in order if not placement[k, i])
            sched = CoSchedule(cpu_queue=cpu, gpu_queue=gpu)
            # repro: noqa REP003 -- byte-identical population-lane contract
            assert ev(sched) == scores[k]

    def test_solo_tail_applied_to_every_lane(self, ctx):
        """A shared solo tail shifts every lane exactly like the scalar
        tail arithmetic of the per-schedule replay."""
        from repro.core.schedule import CoSchedule
        from repro.hardware.device import DeviceKind

        ev = ctx.evaluator
        jobs = list(ctx.jobs)
        tail_job, rest = jobs[0], jobs[1:]
        n = len(rest)
        rng = default_rng(5)
        placement, priority = popkit.random_population(rng, 8, n)
        job_index = np.array(
            [ev.tensor.index[j.uid] for j in rest], dtype=np.int64
        )
        Qc, len_c, Qg, len_g = popkit.decode_queues(
            placement, priority, job_index
        )
        tail = ((ev.tensor.index[tail_job.uid], DeviceKind.CPU),)
        scores, _, _, _, bad = ev.score_population(
            Qc, len_c, Qg, len_g, solo_tail=tail
        )
        assert not bad.any()
        for k in range(placement.shape[0]):
            order = np.argsort(priority[k], kind="stable")
            cpu = tuple(rest[i] for i in order if placement[k, i])
            gpu = tuple(rest[i] for i in order if not placement[k, i])
            sched = CoSchedule(
                cpu_queue=cpu, gpu_queue=gpu,
                solo_tail=((tail_job, DeviceKind.CPU),),
            )
            # repro: noqa REP003 -- byte-identical population-lane contract
            assert ev(sched) == scores[k]


def _queue_matrices(ev, lanes):
    """``(Qc, len_c, Qg, len_g)`` of ``(cpu jobs, gpu jobs)`` lanes."""
    index = ev.tensor.index
    width = max(1, max(len(q) for lane in lanes for q in lane))
    mats = []
    for side in (0, 1):
        Q = np.full((len(lanes), width), -1, dtype=np.int64)
        for k, lane in enumerate(lanes):
            Q[k, : len(lane[side])] = [index[j.uid] for j in lane[side]]
        mats += [Q, np.array([len(lane[side]) for lane in lanes])]
    return tuple(mats)


def _assert_lanes_match_indexed_replay(ev, lanes, result):
    """Lane k is ``bad`` exactly when ``_indexed_replay`` scores its
    schedule infeasible, and then scores ``inf`` like the evaluator; every
    other lane equals both bit for bit."""
    from repro.core.schedule import CoSchedule
    from repro.perf.evaluator import INFEASIBLE

    scores, mk, en, fl, bad = result
    for k, (cpu, gpu) in enumerate(lanes):
        sched = CoSchedule(cpu_queue=tuple(cpu), gpu_queue=tuple(gpu))
        expected = ev._indexed_replay(sched)
        assert bool(bad[k]) == (expected == INFEASIBLE), k
        if bad[k]:
            assert scores[k] == np.inf == ev(sched)
            continue
        # repro: noqa REP003 -- byte-identical population-lane contract
        assert (mk[k], en[k], fl[k]) == expected
        # repro: noqa REP003 -- byte-identical population-lane contract
        assert scores[k] == ev(sched)


class TestInfeasibleLanes:
    """Lanes that meet an infeasible pair or solo cell come back ``bad``
    (the NaN power of the replay table); the others are untouched."""

    @pytest.mark.parametrize("cap", [7.25, 8.5])
    def test_bad_mask_matches_the_indexed_replay(
        self, predictor, rodinia_jobs, cap
    ):
        """At 7.25 W no pair and only some CPU solo levels fit the cap; at
        8.5 W about a third of the pairs fit.  Lanes of every shape: empty
        queues, one-sided queues, job subsets."""
        from repro.core.context import SchedulingContext

        ctx = SchedulingContext(
            jobs=rodinia_jobs, cap_w=cap, predictor=predictor,
        )
        ev = ctx.evaluator
        tables = ev.tables
        assert not tables.pair_valid.all()
        jobs = list(ctx.jobs)
        rng = default_rng(17)
        lanes = [((), ()), (tuple(jobs), ()), ((), tuple(jobs))]
        for _ in range(120):
            picked = [jobs[i] for i in rng.permutation(len(jobs))]
            picked = picked[: int(rng.integers(1, len(jobs) + 1))]
            # Every third lane is one-sided, where solo cells decide.
            cut = (
                int(rng.integers(0, len(picked) + 1))
                if len(lanes) % 3 else len(picked) * int(rng.integers(0, 2))
            )
            lanes.append((tuple(picked[:cut]), tuple(picked[cut:])))
        result = ev.score_population(*_queue_matrices(ev, lanes))
        bad = result[4]
        assert bad.any() and not bad.all()
        _assert_lanes_match_indexed_replay(ev, lanes, result)

    @pytest.mark.parametrize("cap", [9.0, 15.0])
    def test_large_shapes_match_the_indexed_replay(
        self, processor, space, cap
    ):
        """n = 48: the populations of a K = 128 GA generation and a full
        swap neighborhood (K > 512), every lane checked."""
        from repro.core.context import SchedulingContext
        from repro.core.genetic import GaConfig
        from repro.model.predictor import CoRunPredictor
        from repro.model.profiler import profile_workload
        from repro.workload.generator import random_workload

        jobs = tuple(random_workload(48, default_rng(1)))
        predictor = CoRunPredictor(
            processor, profile_workload(processor, jobs), space
        )
        ctx = SchedulingContext(
            jobs=jobs, cap_w=cap, predictor=predictor
        )
        ev = ctx.evaluator
        job_index = np.array(
            [ev.tensor.index[j.uid] for j in jobs], dtype=np.int64
        )
        rng = default_rng(3)
        populations = []

        def score(placement, priority):
            populations.append(
                [
                    (
                        tuple(jobs[i] for i in order if placement[k, i]),
                        tuple(jobs[i] for i in order if not placement[k, i]),
                    )
                    for k, order in enumerate(
                        np.argsort(priority, axis=1, kind="stable")
                    )
                ]
            )
            Qc, len_c, Qg, len_g = popkit.decode_queues(
                placement, priority, job_index
            )
            result = ev.score_population(Qc, len_c, Qg, len_g)
            _assert_lanes_match_indexed_replay(ev, populations[-1], result)
            return result[0]

        popkit.evolve_population(
            score, len(jobs), GaConfig(population=128, generations=1), rng
        )
        assert [len(p) for p in populations] == [128, 128]

        order = rng.permutation(len(jobs))
        cpu, gpu = order[:20], order[20:]
        Qc, Qg, _ = popkit.swap_neighborhood(
            job_index[cpu], job_index[gpu], 0.0, 0.0
        )
        K = Qc.shape[0]
        assert K > 512
        result = ev.score_population(
            Qc, np.full(K, len(cpu)), Qg, np.full(K, len(gpu))
        )
        # Decode the candidates back to jobs through their tensor rows.
        by_row = {int(job_index[i]): jobs[i] for i in range(len(jobs))}
        assert len(by_row) == len(jobs)
        lanes = [
            (tuple(by_row[int(r)] for r in Qc[k]),
             tuple(by_row[int(r)] for r in Qg[k]))
            for k in range(K)
        ]
        if cap == 9.0:
            assert result[4].any() and not result[4].all()
        _assert_lanes_match_indexed_replay(ev, lanes, result)


class TestLockstepEdgeShapes:
    """Lanes leave the lockstep when both their queues run out; every
    population shape must still equal per-lane replays, ``bad`` mask
    included."""

    @pytest.fixture(scope="class")
    def ev(self, predictor, rodinia_jobs):
        from repro.core.context import SchedulingContext

        return SchedulingContext(
            jobs=rodinia_jobs, cap_w=15.0, predictor=predictor,
        ).evaluator

    def test_empty_population(self, ev):
        empty = np.zeros((0, 3), dtype=np.int64)
        lengths = np.zeros(0, dtype=np.int64)
        result = ev.score_population(empty, lengths, empty, lengths)
        for array in result:
            assert array.shape == (0,)

    def test_single_lane(self, ev, rodinia_jobs):
        jobs = list(rodinia_jobs)
        lanes = [(tuple(jobs[:3]), tuple(jobs[3:]))]
        result = ev.score_population(*_queue_matrices(ev, lanes))
        _assert_lanes_match_indexed_replay(ev, lanes, result)

    def test_every_lane_empty(self, ev):
        lanes = [((), ())] * 5
        result = ev.score_population(*_queue_matrices(ev, lanes))
        _assert_lanes_match_indexed_replay(ev, lanes, result)
        assert not result[4].any()
        assert not result[1].any() and not result[3].any()

    def test_lengths_zero_one_and_n_mixed(self, ev, rodinia_jobs):
        """Lanes that finish on the first, second and last events of one
        call, on either side, in one population."""
        jobs = list(rodinia_jobs)
        n = len(jobs)
        lanes = [
            ((), ()),
            ((jobs[0],), ()),
            ((), (jobs[1],)),
            ((jobs[2],), (jobs[3],)),
            (tuple(jobs), ()),
            ((), tuple(jobs)),
            ((jobs[4],), tuple(jobs[:4] + jobs[5:])),
            (tuple(jobs[1:]), (jobs[0],)),
            (tuple(jobs[: n // 2]), tuple(jobs[n // 2:])),
        ]
        result = ev.score_population(*_queue_matrices(ev, lanes))
        _assert_lanes_match_indexed_replay(ev, lanes, result)
        assert not result[4].any()

    def test_infeasible_lanes_finish_at_different_steps(
        self, predictor, rodinia_jobs
    ):
        """At 8.5 W about a third of the pairs fit: bad lanes of lengths
        1 to n, finishing between the first and the last event, beside
        feasible ones."""
        from repro.core.context import SchedulingContext

        ev = SchedulingContext(
            jobs=rodinia_jobs, cap_w=8.5, predictor=predictor,
        ).evaluator
        jobs = list(rodinia_jobs)
        rng = default_rng(23)
        lanes = []
        for length in range(1, len(jobs) + 1):
            for _ in range(4):
                picked = [jobs[i] for i in rng.permutation(len(jobs))[:length]]
                cut = int(rng.integers(0, length + 1))
                lanes.append((tuple(picked[:cut]), tuple(picked[cut:])))
        result = ev.score_population(*_queue_matrices(ev, lanes))
        bad = result[4]
        assert bad.any() and not bad.all()
        assert len({len(c) + len(g) for (c, g), b in zip(lanes, bad) if b}) > 1
        _assert_lanes_match_indexed_replay(ev, lanes, result)


class TestEvolveStream:
    def test_fixed_seed_is_deterministic(self):
        """Same seed, same score function -> identical final genome."""

        def score(placement, priority):
            return (
                placement.sum(axis=1) * 10.0
                + (priority * np.arange(priority.shape[1])).sum(axis=1)
            ).astype(float)

        class Cfg:
            population, generations, elite = 16, 6, 2
            crossover_rate, mutation_rate = 0.8, 0.15

        runs = [
            popkit.evolve_population(
                score, 6, Cfg, default_rng(123)
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])
        assert runs[0][2] == runs[1][2]

    def test_generation_sorts_only_the_fitness_vector(self, monkeypatch):
        """The operators rank rows without sorting them: a generation's
        one argsort is the 1-D fitness sort."""
        shapes = []
        argsort = np.argsort

        def counting_argsort(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)

        class Cfg:
            population, generations, elite = 32, 5, 2
            crossover_rate, mutation_rate = 0.8, 0.15

        popkit.evolve_population(
            lambda placement, priority: placement.sum(axis=1) * 1.0,
            12, Cfg, default_rng(0),
        )
        assert shapes == [(32,)] * 5

    def test_more_generations_never_worse(self):
        """Per-generation draw shapes depend only on (P, n, elite), so a
        longer run consumes the same stream prefix — with elitism the
        best score is monotone in the generation count."""

        def score(placement, priority):
            return (
                np.abs(priority - np.arange(priority.shape[1])).sum(axis=1)
                + placement.sum(axis=1)
            ).astype(float)

        def run(generations):
            class Cfg:
                population, elite = 12, 2
                crossover_rate, mutation_rate = 0.8, 0.15

            Cfg.generations = generations
            return popkit.evolve_population(
                score, 5, Cfg, default_rng(7)
            )[2]

        scores = [run(g) for g in (2, 5, 9)]
        assert scores[0] >= scores[1] >= scores[2]
