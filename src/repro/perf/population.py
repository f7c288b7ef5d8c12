"""Vectorized population kernels: whole GA generations as index matrices.

PR 5 vectorized schedule *evaluation*; the search loops above it still
mutated one genome at a time in Python and paid a ``CoSchedule`` build, a
cache-key hash, and a per-schedule replay call for every candidate.  This
module represents an entire population — or a refinement neighborhood —
as NumPy index matrices instead:

* placement as a ``(P, n)`` bool matrix (``True`` -> CPU queue),
* priority as a ``(P, n)`` int64 matrix of row-wise permutations,

and implements every genetic operator (crossover, mutation, tournament
selection), the decode step, and full-neighborhood generation as batched
array ops over one :class:`numpy.random.Generator` stream.  A generation
is decoded with :func:`decode_queues` and scored by a single
``BatchScheduleEvaluator.score_population`` lockstep replay — one call per
generation, not P.

No operator sorts a row.  Priority rows are permutations, so every rank
the operators need is an inverse permutation (one scatter) or, for the
crossover's composite key, a presence scatter and a cumulative sum; the
tournament's first k random keys come from k rounds of ``argmin``.  Each
equals the stable argsort it replaces, ties included, so the only sort
left in a generation is the 1-D fitness sort.  The kernels therefore
rely on the permutation invariant: every producer here keeps it, and
``GeneticScheduler`` rejects a seed schedule that would break it.

Layering: :mod:`repro.perf` must not import :mod:`repro.core`, so the
kernels speak arrays and a scoring callback only.  ``core/genetic.py`` and
``core/refine.py`` own the dispatch — they translate jobs to tensor
indices and back, and keep the scalar operators as the equivalence
referee.  Given the same random draws, every operator here produces
exactly the genome its scalar counterpart produces (property-tested in
``tests/perf/test_population_ops.py``, which also keeps the stable-argsort
kernels as referees); the batched loop then merely consumes its draws
from one vectorized stream instead of genome-by-genome.

Memory bound: the loop holds O(P x n) int64/bool matrices (population,
children, decoded queues) plus the tournament's ``(2P, P)`` float64 keys
— for the defaults (P=64, n=16) a few hundred kilobytes, and at P=1024,
n=512 about 8 MB of matrices and 16 MB of keys.  The decoded queue
matrices passed to ``score_population`` are released after each
generation.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

#: Safety bound on steepest-descent refinement rounds.  Each accepted move
#: improves the score by at least the move class's minimum relative gain,
#: so convergence is geometric and real workloads stop after a handful of
#: rounds; the cap only guards against degenerate thresholds.
MAX_REFINE_ROUNDS = 64


# ----------------------------------------------------------------------
# Population construction and genetic operators
# ----------------------------------------------------------------------
def random_population(
    rng: np.random.Generator, size: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """A fresh random population: ``(placement, priority)`` matrices.

    Row distributions match the scalar ``_random_genome`` exactly: each
    placement bit is an independent fair coin, each priority row an
    independent uniform permutation of ``0..n-1``.
    """
    placement = rng.random((size, n)) < 0.5
    priority = rng.permuted(
        np.tile(np.arange(n, dtype=np.int64), (size, 1)), axis=1
    )
    return placement, priority


def order_crossover(
    a_placement: np.ndarray,
    a_priority: np.ndarray,
    b_placement: np.ndarray,
    b_priority: np.ndarray,
    mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched order crossover; row r crosses parents ``a[r]`` and ``b[r]``.

    ``mask`` is the per-gene placement coin (``True`` -> inherit from a).
    Priority rows must be permutations (every producer in this module
    keeps them so).  Given the same mask, each child row is *identical* to
    the scalar ``_crossover``: the scalar keeps a's relative order for the
    indices holding a's ``n // 2`` smallest priorities, then fills the rest
    in b's order — which is exactly the rank of the composite key
    ``a_priority`` (picked, all < n//2) vs ``n + b_priority`` (unpicked,
    all >= n) within its row.  The key's values are distinct and lie in
    ``[0, 2n)``, so the rank is a cumulative count over a ``(P, 2n)``
    presence matrix; no row is sorted.
    """
    size, n = a_priority.shape
    placement = np.where(mask, a_placement, b_placement)
    key = np.where(a_priority < n // 2, a_priority, n + b_priority)
    present = np.zeros((size, 2 * n), dtype=bool)
    present[np.arange(size)[:, None], key] = True
    rank = np.cumsum(present, axis=1, dtype=a_priority.dtype) - 1
    return placement, np.take_along_axis(rank, key, axis=1)


def mutation_draws(
    rng: np.random.Generator, size: int, n: int, rate: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The scalar mutation's random decisions for ``size`` genomes at once.

    Returns ``(flip_rows, flip_cols, swap_rows, swap_i, swap_j)``.  The
    swap pair ``(i, j)`` is drawn as ``i`` uniform and ``j`` a uniform
    non-``i`` offset — the same uniform-over-ordered-distinct-pairs law as
    the scalar ``rng.choice(n, size=2, replace=False)``.  With ``n < 2``
    the scalar path never draws a swap; here the swap gate is simply
    always closed.
    """
    flip_rows = rng.random(size) < rate
    flip_cols = rng.integers(n, size=size)
    if n >= 2:
        swap_rows = rng.random(size) < rate
        swap_i = rng.integers(n, size=size)
        swap_j = (swap_i + 1 + rng.integers(n - 1, size=size)) % n
    else:
        swap_rows = np.zeros(size, dtype=bool)
        swap_i = np.zeros(size, dtype=np.int64)
        swap_j = swap_i
    return flip_rows, flip_cols, swap_rows, swap_i, swap_j


def mutate_population(
    placement: np.ndarray,
    priority: np.ndarray,
    flip_rows: np.ndarray,
    flip_cols: np.ndarray,
    swap_rows: np.ndarray,
    swap_i: np.ndarray,
    swap_j: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply batched point mutations (copies; parents stay untouched).

    Rows flagged in ``flip_rows`` flip one placement bit (``flip_cols``);
    rows flagged in ``swap_rows`` swap one priority pair — exactly the two
    moves of the scalar ``_mutate``.
    """
    placement = placement.copy()
    priority = priority.copy()
    rows = np.nonzero(flip_rows)[0]
    placement[rows, flip_cols[rows]] ^= True
    rows = np.nonzero(swap_rows)[0]
    i, j = swap_i[rows], swap_j[rows]
    pi = priority[rows, i].copy()
    priority[rows, i] = priority[rows, j]
    priority[rows, j] = pi
    return placement, priority


def tournament_picks(
    rng: np.random.Generator, size: int, population: int, k: int
) -> np.ndarray:
    """``size`` tournament entry lists: ``(size, k)`` indices, no repeats.

    Row r holds the columns of the k smallest of ``population`` uniform
    random keys, in increasing key order — a uniformly random ordered
    k-subset per row, the same law as the scalar
    ``rng.choice(population, size=k, replace=False)``.  Taken by k rounds
    of ``argmin``, each masking its pick with ``inf`` (keys lie in
    ``[0, 1)``, so the mask never ties a real key); ``argmin`` returns the
    first minimum, so the picks equal the first k columns of a stable
    argsort of the keys, ties included.
    """
    keys = rng.random((size, population))
    rows = np.arange(size)
    picks = np.empty((size, k), dtype=np.intp)
    for col in range(k):
        picks[:, col] = np.argmin(keys, axis=1)
        keys[rows, picks[:, col]] = np.inf
    return picks


def tournament_winners(fitness: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """Row-wise tournament winners: the pick minimizing ``fitness``.

    Ties resolve to the earliest pick in the row, like Python's ``min``
    over the scalar pick sequence.
    """
    entries = fitness[picks]
    col = np.argmin(entries, axis=1)
    return picks[np.arange(picks.shape[0]), col]


# ----------------------------------------------------------------------
# Decoding: genomes -> padded queue-index matrices
# ----------------------------------------------------------------------
def decode_queues(
    placement: np.ndarray, priority: np.ndarray, job_index: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode a population into padded queue matrices of tensor indices.

    Mirrors the scalar ``_decode`` row for row: jobs sorted by priority
    (stable), split by placement into the CPU and GPU queues.  Priority
    rows are permutations, so that sort is the inverse permutation, built
    with one scatter.  ``job_index`` maps genome gene position -> tensor
    job index.  Returns ``(Qc, len_c, Qg, len_g)`` with both queue
    matrices ``(P, n)`` wide and ``-1``-padded past each lane's length.
    """
    size, n = priority.shape
    rows = np.arange(size)[:, None]
    order = np.empty((size, n), dtype=np.intp)
    order[rows, priority] = np.arange(n)
    placed = np.take_along_axis(placement, order, axis=1)
    len_c = placed.sum(axis=1, dtype=np.int64)
    # Each job's slot in one (P, 2n) matrix, CPU queue first: the count of
    # same-queue jobs before it, offset by n for the GPU queue.
    pos_c = np.cumsum(placed, axis=1) - 1
    slot = np.where(placed, pos_c, np.arange(n, 2 * n) - pos_c - 1)
    Q = np.full((size, 2 * n), -1, dtype=np.int64)
    Q[rows, slot] = job_index[order]
    return Q[:, :n], len_c, Q[:, n:], n - len_c


# ----------------------------------------------------------------------
# The vectorized GA loop
# ----------------------------------------------------------------------
def evolve_population(
    score: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n: int,
    config,
    rng: np.random.Generator,
    *,
    seed_placement: np.ndarray | None = None,
    seed_priority: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """The GA generation loop as pure array ops on one Generator stream.

    ``score(placement, priority) -> (P,)`` scores a whole generation at
    once (one lockstep tensor replay); ``config`` is duck-typed to
    :class:`~repro.core.genetic.GaConfig` (population, generations, elite,
    crossover_rate, mutation_rate).  The loop mirrors the scalar
    ``GeneticScheduler.evolve`` structurally — stable fitness sort, elite
    carry-over, two tournaments per child, rate-gated crossover, then
    mutation — with every step batched over the P - elite children.

    The per-generation draw shapes depend only on ``(P, n, elite)``, so a
    longer run consumes the identical stream prefix as a shorter one: with
    any elitism, more generations can never return a worse best score.

    Returns ``(placement, priority, score)`` of the best final genome.
    """
    size = config.population
    n_elite = config.elite
    n_child = size - n_elite
    k = min(3, size)

    placement, priority = random_population(rng, size, n)
    if seed_placement is not None:
        placement[0] = seed_placement
        priority[0] = seed_priority

    for _ in range(config.generations):
        fitness = score(placement, priority)
        order = np.argsort(fitness, kind="stable")
        placement = placement[order]
        priority = priority[order]
        fitness = fitness[order]

        picks = tournament_picks(rng, 2 * n_child, size, k)
        parents = tournament_winners(fitness, picks)
        a_idx, b_idx = parents[0::2], parents[1::2]
        do_cross = rng.random(n_child) < config.crossover_rate
        mask = rng.random((n_child, n)) < 0.5
        cross_place, cross_prio = order_crossover(
            placement[a_idx], priority[a_idx],
            placement[b_idx], priority[b_idx], mask,
        )
        child_place = np.where(do_cross[:, None], cross_place, placement[a_idx])
        child_prio = np.where(do_cross[:, None], cross_prio, priority[a_idx])
        child_place, child_prio = mutate_population(
            child_place, child_prio,
            *mutation_draws(rng, n_child, n, config.mutation_rate),
        )
        placement = np.concatenate([placement[:n_elite], child_place])
        priority = np.concatenate([priority[:n_elite], child_prio])

    fitness = score(placement, priority)
    best = int(np.argmin(fitness))
    return placement[best], priority[best], float(fitness[best])


# ----------------------------------------------------------------------
# Full-neighborhood refinement
# ----------------------------------------------------------------------
def swap_neighborhood(
    cpu: np.ndarray,
    gpu: np.ndarray,
    adjacent_min_gain: float,
    random_min_gain: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every swap the scalar refinement passes sample from, as matrices.

    For queues ``cpu``/``gpu`` of integer job ids (only moved, never read,
    so tensor rows and queue positions both work), enumerates — via array
    ops, one candidate per row — all adjacent swaps in each queue (gated
    by ``adjacent_min_gain``), all intra-queue pairs, and all cross-queue
    single-job exchanges (both gated by ``random_min_gain``).  Queue
    lengths are invariant under every move, so the result is a uniform
    ``(K, len)`` matrix per side plus the per-candidate acceptance
    threshold: ``(Qc, Qg, min_gain)``.
    """
    nc, ng = len(cpu), len(gpu)
    blocks_c: list[np.ndarray] = []
    blocks_g: list[np.ndarray] = []
    gains: list[np.ndarray] = []

    def _intra(queue, pairs_i, pairs_j, gain):
        m = len(pairs_i)
        if m == 0:
            return None
        rows = np.arange(m)
        block = np.tile(queue, (m, 1))
        block[rows, pairs_i] = queue[pairs_j]
        block[rows, pairs_j] = queue[pairs_i]
        return block, np.full(m, gain)

    for queue, other, flip in ((cpu, gpu, False), (gpu, cpu, True)):
        n = len(queue)
        moves = (
            (np.arange(n - 1), np.arange(1, n), adjacent_min_gain),
            (*np.triu_indices(n, 1), random_min_gain),
        )
        for pairs_i, pairs_j, gain in moves:
            got = _intra(queue, pairs_i, pairs_j, gain)
            if got is None:
                continue
            block, g = got
            fixed = np.tile(other, (block.shape[0], 1))
            blocks_c.append(fixed if flip else block)
            blocks_g.append(block if flip else fixed)
            gains.append(g)

    if nc and ng:
        ii, jj = np.meshgrid(np.arange(nc), np.arange(ng), indexing="ij")
        ii, jj = ii.ravel(), jj.ravel()
        m = len(ii)
        rows = np.arange(m)
        block_c = np.tile(cpu, (m, 1))
        block_g = np.tile(gpu, (m, 1))
        block_c[rows, ii] = gpu[jj]
        block_g[rows, jj] = cpu[ii]
        blocks_c.append(block_c)
        blocks_g.append(block_g)
        gains.append(np.full(m, random_min_gain))

    if not blocks_c:
        empty = np.empty((0, max(1, nc)), dtype=np.int64)
        empty_g = np.empty((0, max(1, ng)), dtype=np.int64)
        return empty, empty_g, np.empty(0)
    return np.vstack(blocks_c), np.vstack(blocks_g), np.concatenate(gains)


def refine_queues(
    score_queues: Callable[..., np.ndarray],
    cpu: np.ndarray,
    gpu: np.ndarray,
    best_score: float,
    *,
    adjacent_min_gain: float,
    random_min_gain: float,
    max_rounds: int = MAX_REFINE_ROUNDS,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Steepest-descent refinement over the full swap neighborhood.

    ``score_queues(Qc, len_c, Qg, len_g) -> (K,)`` scores every candidate
    in one lockstep replay, returning ``np.inf`` for infeasible lanes
    (which are thereby skipped, never accepted).  Each round scores the
    complete neighborhood of the incumbent, accepts the best candidate
    beating its move class's minimum relative gain, and repeats until no
    move qualifies.  Deterministic — no RNG, unlike the scalar sampling
    passes — and guaranteed never to worsen the score.
    """
    cpu = np.asarray(cpu, dtype=np.int64)
    gpu = np.asarray(gpu, dtype=np.int64)
    for _ in range(max_rounds):
        Qc, Qg, min_gain = swap_neighborhood(
            cpu, gpu, adjacent_min_gain, random_min_gain
        )
        if Qc.shape[0] == 0:
            break
        K = Qc.shape[0]
        len_c = np.full(K, len(cpu), dtype=np.int64)
        len_g = np.full(K, len(gpu), dtype=np.int64)
        scores = score_queues(Qc, len_c, Qg, len_g)
        accepted = scores < best_score * (1.0 - min_gain)
        if not accepted.any():
            break
        pick = int(np.argmin(np.where(accepted, scores, np.inf)))
        cpu, gpu = Qc[pick], Qg[pick]
        best_score = float(scores[pick])
    return cpu, gpu, best_score
