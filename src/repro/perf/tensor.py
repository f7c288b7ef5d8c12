"""Vectorized tensor evaluation backend: table-backed makespan evaluation.

PR 1's :class:`~repro.perf.cache.EvalCache` deduplicates repeated model
queries but leaves every *cold* query on the scalar Python call chain
(``CoRunPredictor.degradations`` -> ``ProfileTable.demand_gbps`` -> staged
bilinear interpolation), one ``(pair, setting)`` at a time.  This module
precomputes the whole question space once per model and answers the
schedulers' hot questions afterwards with array reductions and O(1)
lookups:

:class:`TensorModel`
    Dense ``float64`` tensors over the full cross-product
    ``(cpu_row x gpu_row x frequency_setting)`` — degradation pair, co-run
    time pair, pair power, per-cap boolean feasibility masks — plus
    per-``(row, device)`` solo time/power vectors.  A row is one *distinct*
    (CPU, GPU) standalone profile pair, so every job of the same program
    shares a row.  Built by vectorizing
    the :class:`~repro.model.interpolation.BilinearGrid` evaluation and the
    :class:`~repro.model.profiler.ProfileTable` lookups over arrays,
    operation for operation, so every element is *bitwise identical* to the
    scalar chain's answer.  Models are memoized by profile content, never
    by predictor, so a grown table or a fresh predictor over equal profiles
    reuses one precompute.  :func:`tensorize` hands out a view indexed by
    one job set's uids; the scheduling context attaches it, with the
    governor's :class:`PairTables`, to the governor it builds
    (:meth:`PairTables.attach`).  The predictor itself stays scalar.

:class:`PairTables`
    Per-(governor, cap) reduction of the tensors: for every (cpu row, gpu
    row) pair the governor's chosen setting, for every (row, device) the
    chosen solo level, and the co-run times/power they give in one
    sentinel-extended replay table — the complete set of constants a
    timeline replay consumes.  Argmin ties
    resolve to the first feasible setting in enumeration order, exactly as
    the governors' ``min()`` does.  The same tables answer the stock
    governors' cache misses, and a lazily built minimum-interference
    matrix ranks HCS's greedy co-runners.

:class:`BatchScheduleEvaluator`
    A :class:`~repro.perf.evaluator.ScheduleEvaluator` with two replays
    over :class:`PairTables`, each the faster one for its input size:

    * **per-schedule replay**: the lockstep's event step as a Python loop
      over the same table's cells, from t=0, for single schedules and
      small batches;
    * **batched lockstep evaluation**: ``evaluate_all`` and
      ``score_population`` score an entire GA population / brute-force
      chunk in one vectorized sweep, advancing all schedules event by
      event — both queue sides in one step, one column gather from
      :attr:`PairTables.replay_table` each — and retiring each schedule
      once both its queues run out.

    Scores are bitwise identical to the scalar evaluator's; cache keys are
    tagged with the backend so mixed backends can never serve each other's
    entries.

Anything the tensors cannot represent exactly — oracle or noisy predictors,
subclassed spaces, jobs missing from the profile table — makes
:func:`tensorize` return ``None`` and the caller falls back to the scalar
path.  Exactness is enforced by ``tests/perf/test_tensor_model.py`` /
``test_tensor_equivalence.py`` and the ``REPRO_SANITIZE=1`` verifier.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.objective import Objective
from repro.units import PowerScale, SpeedScale, Watts
from repro.hardware.device import DeviceKind
from repro.perf.evaluator import INFEASIBLE, CachingPredictor, ScheduleEvaluator

#: Refuse to materialize pair tensors larger than this many elements each
#: (n_jobs^2 x n_settings).  Beyond it the precompute no longer amortizes
#: and the memory cost stops being negligible; callers fall back to scalar.
MAX_TENSOR_ELEMENTS = 2_000_000

#: Smallest ``evaluate_all`` batch replayed in lockstep; smaller batches
#: replay one schedule at a time (see docs/PERF.md for the measurement).
LOCKSTEP_MIN_BATCH = 40

#: Completion tolerance of the mean-field replay (must equal
#: ``repro.core.schedule._EPS``; asserted by the equivalence tests).
_EPS = 1e-12


def _grid_eval(grid, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`BilinearGrid.__call__`, operation for operation.

    Every step mirrors the scalar implementation exactly (same clip,
    ``searchsorted`` side, index clamp, and left-to-right sum order), so
    each output element is bitwise equal to the scalar call at the same
    coordinates.

    ``x`` and ``y`` broadcast against each other, and everything that
    depends on one coordinate alone (clip, search, interpolation weight)
    runs at that coordinate's own shape: :class:`TensorModel` passes
    ``(n, 1, S)`` CPU and ``(1, n, S)`` GPU demands, so only the four
    corner gathers and the weighted sum touch the full ``(n, n, S)`` cube.
    The gathers read the flattened grid at one shared offset, and the sum
    runs in place; neither changes any element's operations or their order.
    """
    xs, ys, v = grid.x_levels, grid.y_levels, grid.values
    x = np.clip(x, xs[0], xs[-1])
    y = np.clip(y, ys[0], ys[-1])

    i = np.searchsorted(xs, x, side="right") - 1
    j = np.searchsorted(ys, y, side="right") - 1
    i = np.clip(i, 0, xs.size - 2)
    j = np.clip(j, 0, ys.size - 2)

    tx = (x - xs[i]) / (xs[i + 1] - xs[i])
    ty = (y - ys[j]) / (ys[j + 1] - ys[j])
    ux, uy = 1 - tx, 1 - ty
    # v[i, j] is flat[i * ny + j]; its three neighbours sit 1, ny and
    # ny + 1 further on, so one offset array serves all four gathers.
    ny = ys.size
    flat = v.ravel()
    k = i * ny + j
    # v00 * (1 - tx) * (1 - ty) + v10 * tx * (1 - ty)
    #     + v01 * (1 - tx) * ty + v11 * tx * ty, left to right.
    out = flat.take(k)
    out *= ux
    out *= uy
    for shift, wx, wy in ((ny, tx, uy), (1, ux, ty), (ny + 1, tx, ty)):
        term = flat[shift:].take(k)
        term *= wx
        term *= wy
        out += term
    return out


@dataclass(frozen=True)
class _CapMasks:
    """Cap-dependent feasibility masks and best-solo reductions."""

    cap_w: Watts
    pair_ok: np.ndarray               # (n, n, S) bool
    solo_ok: dict                      # kind -> (n, L) bool
    best_solo_idx: dict                # kind -> (n,) int (argmin time over feasible)
    best_solo_time: dict               # kind -> (n,) float (inf when infeasible)
    best_solo_valid: dict              # kind -> (n,) bool


class TensorModel:
    """Precomputed dense model tensors over distinct job profiles.

    Row ``r`` holds one distinct (CPU, GPU) pair of
    :class:`~repro.model.profiler.ProfileTable` profiles; the model keeps
    no predictor and no uid map.  Every cell depends only on its two rows'
    profile arrays, the ``processor`` and the ``space``, so jobs of the
    same program share rows and any job set over those profiles can reuse
    the model.  Readers find a job's row through :meth:`indexed`, which
    attaches one job set's uid -> row map.  Use :func:`tensorize`, which
    checks exactness and memoizes models by content.

    The build never broadcasts a coordinate: CPU-side inputs are
    ``(n, 1, S)`` views and GPU-side inputs ``(1, n, S)`` views, so grid
    lookups and interpolation weights run once per (row, setting), and
    only the per-cell arithmetic fills the ``(n, n, S)`` cube.
    """

    def __init__(self, processor, space, rows: Sequence[tuple]) -> None:
        self.processor = processor
        self.space = space
        n = self.n_rows = len(rows)

        cpu_domain = processor.cpu.domain
        gpu_domain = processor.gpu.domain
        self.cpu_levels = tuple(cpu_domain.levels)
        self.gpu_levels = tuple(gpu_domain.levels)
        n_cpu, n_gpu = len(self.cpu_levels), len(self.gpu_levels)
        self.n_gpu_levels = n_gpu

        # Settings in processor.settings() enumeration order: cpu-major.
        self.settings = list(processor.settings())
        lc = np.repeat(np.arange(n_cpu), n_gpu)   # cpu level index of setting s
        lg = np.tile(np.arange(n_gpu), n_cpu)     # gpu level index of setting s

        # Per-(row, device) level vectors, copied from the profiles.
        shapes = {DeviceKind.CPU: (n, n_cpu), DeviceKind.GPU: (n, n_gpu)}
        self.solo_time = {k: np.empty(s) for k, s in shapes.items()}
        self.solo_chip_power = {k: np.empty(s) for k, s in shapes.items()}
        self._demand = {k: np.empty(s) for k, s in shapes.items()}
        self._own_power = {k: np.empty(s) for k, s in shapes.items()}
        for i, (cpu_prof, gpu_prof) in enumerate(rows):
            for kind, prof in zip(DeviceKind, (cpu_prof, gpu_prof)):
                self.solo_time[kind][i] = prof.time_s
                self.solo_chip_power[kind][i] = prof.chip_power_w
                self._demand[kind][i] = prof.demand_gbps
                self._own_power[kind][i] = prof.own_power_w

        # Coordinates of the (cpu_row i, gpu_row j, setting s) cube, left
        # un-broadcast: the CPU demand varies over (i, s) only, the GPU
        # demand over (j, s) only.
        bw_c = self._demand[DeviceKind.CPU][:, lc][:, None, :]
        bw_g = self._demand[DeviceKind.GPU][:, lg][None, :, :]

        self.deg_c, self.deg_g = _degradation_tensors(space, bw_c, bw_g, self.settings)

        t_solo_c = self.solo_time[DeviceKind.CPU][:, lc][:, None, :]
        t_solo_g = self.solo_time[DeviceKind.GPU][:, lg][None, :, :]
        # Same binary-op order as CoRunPredictor.corun_times: t * (1.0 + d).
        self.t_corun_c = t_solo_c * (1.0 + self.deg_c)
        self.t_corun_g = t_solo_g * (1.0 + self.deg_g)

        # Same op order as CoRunPredictor.pair_power_w:
        # own_c + own_g + (base + per_gbps * (bw_c + bw_g)).
        uncore = processor.power.uncore
        own_c = self._own_power[DeviceKind.CPU][:, lc][:, None, :]
        own_g = self._own_power[DeviceKind.GPU][:, lg][None, :, :]
        self.pair_power = own_c + own_g + (
            uncore.base_w + uncore.per_gbps_w * (bw_c + bw_g)
        )

        self._cap_masks: dict[float, _CapMasks] = {}
        self._pair_tables: dict[tuple, object] = {}
        self._theorem_pairs: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        #: Name of the fleet node this model is scaled for (None = the
        #: calibrated machine itself); set on clones by :meth:`scaled`.
        self.node_name: str | None = None
        self._scaled_memo: dict[tuple, "TensorModel"] = {}

    # ------------------------------------------------------------------
    # Node scaling
    # ------------------------------------------------------------------
    def scaled(
        self,
        speed_scale: SpeedScale,
        power_scale: PowerScale,
        node_name: str | None = None,
    ) -> "TensorModel":
        """A clone of this model through one fleet node's scaling (memoized).

        Times divide by ``speed_scale`` and powers multiply by
        ``power_scale`` — elementwise over the already-exact tensors, the
        same two float operations :class:`~repro.core.fleet.NodePredictor`
        applies to each scalar answer, so scaled tensor and scaled scalar
        stay bitwise identical.  Degradations are ratios and are shared
        untouched; cap masks and pair tables start fresh (they depend on
        the scaled powers).
        """
        # repro: noqa REP003 -- exact identity gate: only a literal 1.0 scale shares the model
        if speed_scale == 1.0 and power_scale == 1.0:
            return self
        key = (speed_scale, power_scale, node_name)
        cached = self._scaled_memo.get(key)
        if cached is not None:
            return cached
        clone = object.__new__(TensorModel)
        clone.__dict__.update(self.__dict__)
        clone.solo_time = {
            k: v / speed_scale for k, v in self.solo_time.items()
        }
        clone.solo_chip_power = {
            k: v * power_scale for k, v in self.solo_chip_power.items()
        }
        clone.t_corun_c = self.t_corun_c / speed_scale
        clone.t_corun_g = self.t_corun_g / speed_scale
        clone.pair_power = self.pair_power * power_scale
        clone._cap_masks = {}
        clone._pair_tables = {}
        clone._theorem_pairs = {}
        clone._scaled_memo = {}
        clone.node_name = node_name
        if len(self._scaled_memo) >= 16:
            self._scaled_memo.pop(next(iter(self._scaled_memo)))
        self._scaled_memo[key] = clone
        return clone

    def indexed(self, index: dict[str, int]) -> "TensorModel":
        """This model's arrays and memos under one job set's uid -> row map.

        The view shares every array and the cap-mask, pair-table and
        scaling memos with this model, so what one view computes serves
        all of them; only ``index`` is its own.
        """
        view = object.__new__(TensorModel)
        view.__dict__.update(self.__dict__)
        view.index = index
        return view

    @property
    def nbytes(self) -> int:
        """Approximate precompute footprint (the five pair tensors)."""
        return int(
            self.deg_c.nbytes
            + self.deg_g.nbytes
            + self.t_corun_c.nbytes
            + self.t_corun_g.nbytes
            + self.pair_power.nbytes
        )

    # ------------------------------------------------------------------
    # Cap masks
    # ------------------------------------------------------------------
    def masks(self, cap_w: Watts) -> _CapMasks:
        """Feasibility masks and best-solo reductions for one cap (memoized)."""
        cached = self._cap_masks.get(cap_w)
        if cached is not None:
            return cached
        pair_ok = self.pair_power <= cap_w
        solo_ok, best_idx, best_time, best_valid = {}, {}, {}, {}
        for kind in DeviceKind:
            ok = self.solo_chip_power[kind] <= cap_w
            masked = np.where(ok, self.solo_time[kind], np.inf)
            idx = np.argmin(masked, axis=1)
            solo_ok[kind] = ok
            best_idx[kind] = idx
            best_time[kind] = masked[np.arange(masked.shape[0]), idx]
            best_valid[kind] = ok.any(axis=1)
        masks = _CapMasks(
            cap_w=cap_w,
            pair_ok=pair_ok,
            solo_ok=solo_ok,
            best_solo_idx=best_idx,
            best_solo_time=best_time,
            best_solo_valid=best_valid,
        )
        if len(self._cap_masks) >= 16:
            self._cap_masks.pop(next(iter(self._cap_masks)))
        self._cap_masks[cap_w] = masks
        return masks

    def theorem_pairs(self, cap_w: Watts) -> tuple[np.ndarray, np.ndarray]:
        """``(beneficial, rejected)``: the Co-Run Theorem per row pair (memoized).

        ``beneficial[i, j]`` — some cap-feasible setting makes co-running
        row ``i`` on the CPU with row ``j`` on the GPU beneficial under
        :func:`~repro.core.theorem.corun_beneficial_theorem`, evaluated
        cell by cell on the same floats and in the same operation order.
        ``rejected[i, j]`` — some cap-feasible setting holds an input the
        theorem's validation refuses (a non-positive length or a negative
        or NaN degradation); callers take the scalar path there.
        """
        cached = self._theorem_pairs.get(cap_w)
        if cached is not None:
            return cached
        settings = np.arange(len(self.settings))
        l_c = self.solo_time[DeviceKind.CPU][:, settings // self.n_gpu_levels]
        l_g = self.solo_time[DeviceKind.GPU][:, settings % self.n_gpu_levels]
        l_c, l_g = l_c[:, None, :], l_g[None, :, :]
        d_c, d_g = self.deg_c, self.deg_g
        feasible = self.masks(cap_w).pair_ok
        valid = (l_c > 0) & (l_g > 0) & (d_c >= 0) & (d_g >= 0)
        cpu_longer = l_c * (1.0 + d_c) >= l_g * (1.0 + d_g)
        wins = np.where(cpu_longer, l_c * d_c < l_g, l_g * d_g < l_c)
        pairs = (
            (feasible & wins).any(axis=2),
            (feasible & ~valid).any(axis=2),
        )
        if len(self._theorem_pairs) >= 16:
            self._theorem_pairs.pop(next(iter(self._theorem_pairs)))
        self._theorem_pairs[cap_w] = pairs
        return pairs


def _degradation_tensors(space, bw_c, bw_g, settings):
    """(deg_c, deg_g) over the job-pair/setting cube, exact to the space."""
    from repro.model.space import DegradationSpace, StagedDegradationSpace

    if type(space) is DegradationSpace:
        # Scalar: max(0.0, grid(bw_c, bw_g)); the setting is ignored.
        deg_c = np.maximum(_grid_eval(space.cpu_grid, bw_c, bw_g), 0.0)
        deg_g = np.maximum(_grid_eval(space.gpu_grid, bw_c, bw_g), 0.0)
        return deg_c, deg_g

    assert type(space) is StagedDegradationSpace
    # Scalar: sum(w_a * grid_a(bw_c, bw_g)) accumulated in anchor order from
    # int 0, then max(0.0, float(value)).  0.0 + x and in-order adds keep the
    # accumulation bitwise identical.
    cube = np.broadcast_shapes(bw_c.shape, bw_g.shape)
    weights = np.empty((len(space.anchors), cube[2]))
    for s, setting in enumerate(settings):
        weights[:, s] = space._weights(setting)
    acc_c = np.zeros(cube)
    acc_g = np.zeros(cube)
    for a, anchor in enumerate(space.anchors):
        w = weights[a][None, None, :]
        acc_c = acc_c + w * _grid_eval(anchor.cpu_grid, bw_c, bw_g)
        acc_g = acc_g + w * _grid_eval(anchor.gpu_grid, bw_c, bw_g)
    return np.maximum(acc_c, 0.0), np.maximum(acc_g, 0.0)


# ----------------------------------------------------------------------
# Model memo: one TensorModel per (processor, space, distinct profiles)
# ----------------------------------------------------------------------
_MODEL_MEMO: OrderedDict = OrderedDict()
_MODEL_MEMO_LIMIT = 8


def _row_bytes(cpu_prof, gpu_prof) -> bytes:
    """One row's content: its eight level arrays as the float64s the model copies."""
    return np.concatenate(
        [
            a
            for prof in (cpu_prof, gpu_prof)
            for a in (prof.time_s, prof.demand_gbps, prof.own_power_w, prof.chip_power_w)
        ],
        dtype=np.float64,
    ).tobytes()


def _row_contents(table, uids) -> tuple[dict, dict]:
    """Each uid's row content key, and one (CPU, GPU) profile pair per key.

    Two uids share a key exactly when their profile arrays are bitwise
    equal, so they share every tensor cell.  Profile objects shared
    between uids (the online table's content cache) are keyed once.
    """
    profiles = table._profiles
    by_identity: dict[tuple[int, int], bytes] = {}
    keys: dict[str, bytes] = {}
    rows: dict[bytes, tuple] = {}
    for uid in uids:
        pair = (profiles[(uid, DeviceKind.CPU)], profiles[(uid, DeviceKind.GPU)])
        # The table holds both profiles for the whole call, so ids are stable.
        ident = (id(pair[0]), id(pair[1]))
        key = by_identity.get(ident)
        if key is None:
            key = by_identity[ident] = _row_bytes(*pair)
            rows.setdefault(key, pair)
        keys[uid] = key
    return keys, rows


def tensorize(predictor, uids: Sequence[str] | None = None) -> TensorModel | None:
    """The :class:`TensorModel` of ``predictor``, indexed by uid, or ``None``.

    The view's ``index`` maps every uid of the predictor's table (or, when
    the table's distinct profiles are too many, every one of ``uids``) to
    its row; every cell equals the predictor's scalar answer bit for bit.

    Returns ``None`` whenever exactness cannot be guaranteed by the tensor
    arithmetic — the base predictor is not *exactly* a
    :class:`~repro.model.predictor.CoRunPredictor` (oracle or noisy
    variants subclass or replace it), the space/table/power models are
    subclassed, requested uids are missing from the table, or the tensors
    over the distinct profiles would exceed :data:`MAX_TENSOR_ELEMENTS`.
    Callers treat ``None`` as "use the scalar path".

    Models are memoized by (processor, space, distinct profile contents),
    so every :class:`~repro.core.context.SchedulingContext` over the same
    programs — whatever their uids, whichever predictor or grown table
    carries them — reuses one precompute, its cap masks and its
    :class:`PairTables`.  Each call pays only for its uid -> row index.
    """
    from repro.hardware.power import UncorePowerModel
    from repro.model.interpolation import BilinearGrid
    from repro.model.predictor import CoRunPredictor
    from repro.model.profiler import ProfileTable
    from repro.model.space import DegradationSpace, StagedDegradationSpace

    base = predictor.inner if isinstance(predictor, CachingPredictor) else predictor
    # A fleet node's scaled view is tensorizable: build (or reuse) the base
    # model, then clone it through the node's scaling.  Lazy import — perf
    # must not import core at module load.
    node = None
    node_predictor_type = _node_predictor_type()
    if node_predictor_type is not None and type(base) is node_predictor_type:
        node = base.node
        base = base.inner
        if isinstance(base, CachingPredictor):
            base = base.inner
    if type(base) is not CoRunPredictor:
        return None
    if type(base.table) is not ProfileTable:
        return None
    if type(base.processor.power.uncore) is not UncorePowerModel:
        return None
    space = base.space
    if type(space) is DegradationSpace:
        grids = (space.cpu_grid, space.gpu_grid)
    elif type(space) is StagedDegradationSpace:
        if any(type(a) is not DegradationSpace for a in space.anchors):
            return None
        grids = tuple(g for a in space.anchors for g in (a.cpu_grid, a.gpu_grid))
    else:
        return None
    if any(type(g) is not BilinearGrid for g in grids):
        return None

    keys, rows = _row_contents(base.table, base.table.uids)
    if uids is not None and any(uid not in keys for uid in uids):
        return None
    n_settings = base.processor.n_settings

    def fits(n_rows: int) -> bool:
        return n_rows * n_rows * n_settings <= MAX_TENSOR_ELEMENTS

    # Prefer a table-wide model (every table uid indexed); fall back to the
    # requested jobs' profiles when the table's distinct profiles are too many.
    if not fits(len(rows)):
        if uids is None:
            return None
        keys = {uid: keys[uid] for uid in uids}
        if not fits(len(set(keys.values()))):
            return None
    contents = tuple(sorted(set(keys.values())))

    memo_key = (id(base.processor), id(space), contents)
    model = _MODEL_MEMO.get(memo_key)
    if model is None:
        # The model holds processor and space, so their ids in a live key
        # cannot be reused by other objects.
        model = TensorModel(base.processor, space, [rows[c] for c in contents])
        while len(_MODEL_MEMO) >= _MODEL_MEMO_LIMIT:
            _MODEL_MEMO.popitem(last=False)
        _MODEL_MEMO[memo_key] = model
    else:
        _MODEL_MEMO.move_to_end(memo_key)
    if node is not None:
        model = model.scaled(node.speed_scale, node.power_scale, node.name)
    row_of = {c: r for r, c in enumerate(contents)}
    return model.indexed({uid: row_of[c] for uid, c in keys.items()})


def _node_predictor_type():
    """The fleet NodePredictor class, or ``None`` before core is loaded.

    ``sys.modules`` lookup instead of an import: if nothing has touched
    ``repro.core.fleet`` yet, no predictor we receive can be a
    NodePredictor, and perf stays import-independent of core.
    """
    import sys

    mod = sys.modules.get("repro.core.fleet")
    return getattr(mod, "NodePredictor", None) if mod is not None else None


class PairTables:
    """Governor-resolved replay constants for one (tensor, governor, cap).

    For every (cpu row, gpu row) pair the governor's chosen setting index,
    for every (row, device) the chosen solo level's index, and the values
    those choices give in one place, :attr:`replay_table`: a
    column-major ``(3, (n+1)²)`` array whose rows are every cell's
    ``t_c``, ``t_g`` and power, cell ``c·(n+1) + g`` for cpu row ``c`` and
    gpu row ``g`` — so one ``take(cells, axis=1)`` gathers three
    contiguous rows.  Row and column ``n`` are the idle sentinel: cell
    ``(c, n)`` holds cpu row ``c``'s solo level and ``(n, g)`` gpu row
    ``g``'s, with the idle side's time ``+inf`` so ``min(frac_c·t_c,
    frac_g·t_g)`` is the solo time bit for bit (``min(x, inf) == x``).
    Infeasible pair and solo cells hold unit times and NaN power, so a
    replay that meets one still finishes, with NaN energy, which the
    evaluator turns into an ``inf`` score.  Cell ``(n, n)`` (both
    sides idle), the last one, marks a finished replay.
    Every feasible cell is exactly the (governor, predictor) value, so a
    replay over the table is bitwise identical to the scalar one.

    The same choices answer the governor itself (:meth:`serving`), and
    :attr:`interference` adds the greedy pairing's ranking matrix.
    """

    def __init__(self, cap_w, pair_valid, pair_sidx, solo_valid, solo_idx,
                 replay_table, settings, levels, rank):
        self.cap_w = cap_w
        self.pair_valid = pair_valid
        self.pair_sidx = pair_sidx        # (n, n) int: chosen setting index
        self.solo_valid = solo_valid      # kind -> (n,) bool
        self.solo_idx = solo_idx          # kind -> (n,) int: chosen level index
        self.replay_table = replay_table  # (3, (n+1)²): t_c, t_g, power rows
        self.width = pair_valid.shape[0] + 1
        self.settings = settings          # setting index -> FrequencySetting
        self.levels = levels              # kind -> level index -> GHz
        self._rank = rank
        self._interference = None
        self._replay_values = None

    @property
    def replay_values(self) -> list[float]:
        """:attr:`replay_table` flattened cell by cell into one list of
        Python floats.

        Cell ``k``'s ``t_c``, ``t_g`` and power sit at ``3k``, ``3k + 1``
        and ``3k + 2``.  What the Python-loop readers index (no numpy
        scalar per lookup); built on first use and shared by every reader.
        One list of floats, not a list per cell: tables are rebuilt often,
        and per-cell containers cost several times more to build and are
        scanned by every full garbage collection while the tables live.
        """
        if self._replay_values is None:
            self._replay_values = self.replay_table.T.ravel().tolist()
        return self._replay_values

    def solo_cell(self, row: int, kind: DeviceKind) -> tuple[float, float]:
        """``(time, power)`` of ``row``'s solo cell on ``kind``: the chosen
        level's, or ``(1.0, nan)`` when no level fits the cap."""
        values = self.replay_values
        idle = self.width - 1
        if kind is DeviceKind.CPU:
            k = 3 * (row * self.width + idle)
            return values[k], values[k + 2]
        k = 3 * (idle * self.width + row)
        return values[k + 1], values[k + 2]

    def add_solo_tail(self, tail, t, energy, flow):
        """Replay totals plus a ``(row, kind)`` solo tail.

        The scalar tail's op order — ``t += solo; flow += t; energy +=
        solo · power`` — on floats or per-lane arrays alike.  A tail job
        with no feasible solo level reads its cell's NaN power, so the
        energy comes back NaN, as after an infeasible replay cell.
        """
        for row, kind in tail:
            solo_s, power = self.solo_cell(row, kind)
            t = t + solo_s
            flow = flow + t
            energy = energy + solo_s * power
        return t, energy, flow

    @property
    def interference(self) -> tuple[np.ndarray, np.ndarray]:
        """``(value, sidx)``: each pair's minimum ranking cost and its setting.

        The ranking quantity of the heuristic's Step 3, reduced over the
        cap-feasible settings: the summed degradations for
        :class:`~repro.core.freqpolicy.ModelGovernor`, the governor's own
        pair cost for :class:`~repro.core.objectives.EnergyAwareGovernor`
        (whose ranking and frequency choice are then one argmin).  Infeasible
        pairs read ``inf``.  Built on first use, so contexts that never run
        HCS never pay for it.
        """
        if self._interference is None:
            self._interference = self._rank()
            self._rank = None
        return self._interference

    @staticmethod
    def serving(governor):
        """``(tables, tensor)`` attached to ``governor``, or ``None``.

        :meth:`attach` puts them there: the governor's tables and the
        indexed model view they reduce (``tensor.index`` maps uids to
        rows).  A governor nothing was attached to — any governor a
        scheduling context did not build over the tensor model — reads
        ``None`` and takes the scalar path.
        """
        return getattr(governor, "served", None)

    @classmethod
    def attach(cls, governor, tensor: TensorModel):
        """Reduce ``governor`` over ``tensor`` and attach the result.

        Sets ``governor.served = (tables, tensor)``, which :meth:`serving`
        reads, and returns the tables; returns ``None`` and attaches
        nothing when :meth:`build` declines the governor.  The tables
        come from the model's memo, so every governor over one model and
        cap shares them.
        """
        tables = cls.build(tensor, governor, governor.cap_w)
        if tables is not None:
            governor.served = (tables, tensor)
        return tables

    @staticmethod
    def _memo_key(governor, cap_w: float):
        """The memo key of a governor :meth:`build` reduces, else ``None``."""
        kind_of = type(governor)
        if kind_of not in _stock_governors():
            return None
        if governor.cap_w != cap_w:
            return None
        return (kind_of, getattr(governor, "objective", None), cap_w)

    @classmethod
    def build(cls, tensor: TensorModel, governor, cap_w: float):
        """Tables for a recognized governor, or ``None``.

        Only the two stock governors are reducible: the exact types
        :class:`~repro.core.freqpolicy.ModelGovernor` (minimum summed
        co-run time / fastest feasible solo level) and
        :class:`~repro.core.objectives.EnergyAwareGovernor` (minimum pair
        energy or EDP).  A subclassed or custom governor returns ``None``
        and the evaluator stays on the scalar replay.
        """
        from repro.core.freqpolicy import ModelGovernor

        memo_key = cls._memo_key(governor, cap_w)
        if memo_key is None:
            return None
        cached = tensor._pair_tables.get(memo_key)
        if cached is not None:
            return cached
        masks = tensor.masks(cap_w)
        if type(governor) is ModelGovernor:
            # min over feasible settings of sum(corun_times) == t_c + t_g.
            pair_cost = tensor.t_corun_c + tensor.t_corun_g
            solo_cost = None
        else:
            # EnergyAwareGovernor's costs, element-wise: the objective over
            # (span, energy), with pair_energy_j = power * (t_c + t_g) and
            # solo_energy_j = chip_power * solo_time.
            score = governor.objective.score
            pair_cost = score(
                np.maximum(tensor.t_corun_c, tensor.t_corun_g),
                tensor.pair_power * (tensor.t_corun_c + tensor.t_corun_g),
            )
            solo_cost = {
                kind: score(
                    tensor.solo_time[kind],
                    tensor.solo_chip_power[kind] * tensor.solo_time[kind],
                )
                for kind in DeviceKind
            }

        with np.errstate(invalid="ignore"):
            masked = np.where(masks.pair_ok, pair_cost, np.inf)
        sidx = np.argmin(masked, axis=2)
        pair_valid = masks.pair_ok.any(axis=2)
        take = np.take_along_axis
        n = tensor.n_rows
        # Column-major: row 0 holds every cell's t_c, row 1 its t_g and
        # row 2 its power, so a gather of cells reads three contiguous rows.
        cells = np.empty((3, n + 1, n + 1))
        pair_values = (tensor.t_corun_c, tensor.t_corun_g, tensor.pair_power)
        for col, values in enumerate(pair_values):
            cells[col, :n, :n] = take(values, sidx[..., None], axis=2)[..., 0]
        cells[:, :n, :n][:, ~pair_valid] = ((1.0,), (1.0,), (np.nan,))

        if solo_cost is None:
            rank = _degradation_rank(tensor, masks)
        else:
            # The energy governor ranks by its own pair cost: the value at
            # the setting it would choose, from the reduction above.
            def rank():
                return take(masked, sidx[..., None], axis=2)[..., 0], sidx

        solo_valid, solo_idx = {}, {}
        rows = np.arange(n)
        for kind in DeviceKind:
            if solo_cost is None:
                idx = masks.best_solo_idx[kind]
            else:
                with np.errstate(invalid="ignore"):
                    c = np.where(masks.solo_ok[kind], solo_cost[kind], np.inf)
                idx = np.argmin(c, axis=1)
            solo_valid[kind] = ok = masks.best_solo_valid[kind]
            solo_idx[kind] = idx
            if kind is DeviceKind.CPU:
                solo, busy, idle = cells[:, :n, n], 0, 1
            else:
                solo, busy, idle = cells[:, n, :n], 1, 0
            solo[busy] = tensor.solo_time[kind][rows, idx]
            solo[idle] = np.inf
            solo[2] = tensor.solo_chip_power[kind][rows, idx]
            solo[busy, ~ok] = 1.0
            solo[2, ~ok] = np.nan
        cells[:, n, n] = (np.inf, np.inf, 0.0)
        tables = cls(
            cap_w, pair_valid, sidx, solo_valid, solo_idx,
            cells.reshape(3, -1),
            tensor.settings,
            {DeviceKind.CPU: tensor.cpu_levels, DeviceKind.GPU: tensor.gpu_levels},
            rank,
        )
        if len(tensor._pair_tables) >= 16:
            tensor._pair_tables.pop(next(iter(tensor._pair_tables)))
        tensor._pair_tables[memo_key] = tables
        return tables


@functools.cache
def _stock_governors() -> tuple:
    """The exact governor types :class:`PairTables` reduces.

    Imported on first use (perf must not import core at load) and kept,
    because governors ask on every cache miss.
    """
    from repro.core.freqpolicy import ModelGovernor
    from repro.core.objectives import EnergyAwareGovernor

    return (ModelGovernor, EnergyAwareGovernor)


def _degradation_rank(tensor: TensorModel, masks: _CapMasks):
    """ModelGovernor's ranking reduction, deferred until first asked for.

    ``deg_c + deg_g`` is the scalar ``sum((d_c, d_g))`` bit for bit (the
    sum starts from int 0, and ``0 + d == d``); the argmin's first-minimum
    tie rule matches ``min()`` over the settings in enumeration order.
    """

    def rank():
        masked = np.where(masks.pair_ok, tensor.deg_c + tensor.deg_g, np.inf)
        sidx = np.argmin(masked, axis=2)
        value = np.take_along_axis(masked, sidx[..., None], axis=2)[..., 0]
        return value, sidx

    return rank


def _sentinel_queues(Qc, len_c, Qg, len_g, width: int):
    """Both sides' ``(K, w)`` queue matrices as one flat lockstep queue
    array, with the ``(2, K)`` lane start cursors and the fewest events
    any lane can take (:meth:`BatchScheduleEvaluator._lockstep`).

    Lane k's stretch holds its cpu queue pre-multiplied by ``width``, then
    its gpu queue; cursor row 0 starts on the first and row 1 on the
    second, so the sum of what a lane's two cursors point at is its table
    cell.  Every slot past a queue's length, plus one extra slot, holds
    the idle sentinel (row ``width - 1``), so a cursor that runs off its
    queue stays on it.
    """
    idle = width - 1
    K, wc = Qc.shape
    wg = Qg.shape[1]
    lanes = np.empty((K, wc + wg + 2), dtype=np.int64)
    lanes[:, :wc] = np.where(np.arange(wc) < len_c[:, None], Qc * width, idle * width)
    lanes[:, wc] = idle * width
    lanes[:, wc + 1 : -1] = np.where(np.arange(wg) < len_g[:, None], Qg, idle)
    lanes[:, -1] = idle
    starts = np.arange(0, lanes.size, lanes.shape[1])
    longest = np.maximum(np.minimum(len_c, wc), np.minimum(len_g, wg))
    min_events = int(longest.min()) if K else 0
    return lanes.ravel(), np.stack((starts, starts + wc + 1)), min_events


def _flat_queues(cpu_queues, gpu_queues, width: int):
    """:func:`_sentinel_queues` for row-index lists: each list closed by
    one idle sentinel and laid end to end, all cpu lanes (times ``width``)
    before all gpu lanes, with the ``(2, K)`` start cursors and the fewest
    events any lane can take."""
    idle = width - 1
    flat, starts, offset = [], [], 0
    for queues, scale in ((cpu_queues, width), (gpu_queues, 1)):
        side, side_starts = [], []
        for q in queues:
            side_starts.append(offset + len(side))
            side += q + [idle]
        flat.append(np.array(side, dtype=np.int64) * scale)
        starts.append(side_starts)
        offset += len(side)
    min_events = min(
        (max(len(c), len(g)) for c, g in zip(cpu_queues, gpu_queues)), default=0
    )
    return np.concatenate(flat), np.array(starts, dtype=np.int64), min_events


class BatchScheduleEvaluator(ScheduleEvaluator):
    """A :class:`ScheduleEvaluator` replaying over :class:`PairTables`.

    Drop-in compatible (same cache, same governor, same scores to the bit)
    but with two fast paths:

    * single schedules and ``evaluate_all`` batches smaller than
      :data:`LOCKSTEP_MIN_BATCH` replay one at a time, from t=0, with O(1)
      table lookups per event;
    * larger ``evaluate_all`` batches and ``score_population`` advance a
      whole population in one lockstep sweep over the sentinel-extended
      :attr:`PairTables.replay_table`, dropping lanes as they finish.

    A schedule that meets an infeasible pair or solo cell (NaN power)
    scores ``inf``, as on the scalar path; only schedules with uids the
    tables do not cover are scored on the scalar path.
    """

    backend = "tensor"

    def __init__(self, predictor, governor, cache=None, objective=Objective.MAKESPAN,
                 *, tensor: TensorModel, tables: PairTables):
        super().__init__(predictor, governor, cache, objective)
        self.tensor = tensor
        self.tables = tables
        self.batch_stats = {
            # Always 0 (replays start at t=0); kept because bench/trace.py reads it.
            "delta_resumes": 0,
            "full_replays": 0,
            "batch_calls": 0,
            "batch_schedules": 0,
            "population_calls": 0,
            "population_schedules": 0,
            "scalar_fallbacks": 0,
        }

    # ------------------------------------------------------------------
    # Indexed (single-schedule) replay
    # ------------------------------------------------------------------
    def _indexable(self, schedule) -> bool:
        index = self.tensor.index
        return all(uid in index for uid in schedule.all_uids())

    def _tensor_rows(self, jobs) -> list[int]:
        index = self.tensor.index
        return [index[job.uid] for job in jobs]

    def _indexed_replay(self, schedule):
        """(makespan, energy, flow) of one schedule replayed from t=0, all
        ``inf`` if it meets an infeasible pair or solo cell.

        The lockstep replay's event step for one lane, in plain Python
        over :attr:`PairTables.replay_values`: the same sentinel cells and
        the same op order, so the two replays agree bit for bit.
        """
        self.batch_stats["full_replays"] += 1
        values = self.tables.replay_values
        width = self.tables.width
        idle = width - 1
        # Cell k = cpu row * width + gpu row, its values from 3k on; each
        # queue ends on the idle sentinel, whose time is inf, so it never
        # completes.
        cpu = [3 * width * row for row in self._tensor_rows(schedule.cpu_queue)]
        cpu.append(3 * width * idle)
        gpu = [3 * row for row in self._tensor_rows(schedule.gpu_queue)]
        gpu.append(3 * idle)
        finished = cpu[-1] + gpu[-1]

        cp = gp = 0
        frac_c = frac_g = 1.0
        t = energy = flow = 0.0
        while True:
            k = cpu[cp] + gpu[gp]
            if k == finished:
                break
            t_c = values[k]
            t_g = values[k + 1]
            dt = min(frac_c * t_c, frac_g * t_g)
            energy += dt * values[k + 2]
            t += dt
            done = 0
            rem = frac_c - dt / t_c
            if rem <= _EPS:
                cp, frac_c, done = cp + 1, 1.0, 1
            else:
                frac_c = rem
            rem = frac_g - dt / t_g
            if rem <= _EPS:
                gp, frac_g, done = gp + 1, 1.0, done + 1
            else:
                frac_g = rem
            flow += done * t
        return self._with_tail(schedule, t, energy, flow)

    def _with_tail(self, schedule, t, energy, flow):
        """Totals plus ``schedule``'s solo tail; :data:`INFEASIBLE` on NaN
        energy."""
        index = self.tensor.index
        tail = [(index[job.uid], kind) for job, kind in schedule.solo_tail]
        t, energy, flow = self.tables.add_solo_tail(tail, t, energy, flow)
        return INFEASIBLE if math.isnan(energy) else (t, energy, flow)

    # ------------------------------------------------------------------
    # ScheduleEvaluator overrides
    # ------------------------------------------------------------------
    def _replayed(self, schedule, *, track_energy: bool):
        """The table replay of ``schedule``, or the scalar referee's when
        the tables do not cover its uids."""
        if self._indexable(schedule):
            return self._indexed_replay(schedule)
        self.batch_stats["scalar_fallbacks"] += 1
        return super()._replayed(schedule, track_energy=track_energy)

    def _replay_all(self, todo: Sequence) -> list[tuple[float, float, float]]:
        """The table-covered schedules of ``todo`` in one
        :meth:`_batch_replay`, the others one by one; in order."""
        covered = [s for s in todo if self._indexable(s)]
        batch = iter(self._batch_replay(covered) if covered else ())
        return [
            next(batch) if self._indexable(s) else self._replayed(s, track_energy=True)
            for s in todo
        ]

    # ------------------------------------------------------------------
    # Batched lockstep evaluation
    # ------------------------------------------------------------------
    def _batch_replay(self, schedules):
        """``(makespan, energy, flow)`` of many schedules, in order.

        Batches smaller than :data:`LOCKSTEP_MIN_BATCH` replay one
        schedule at a time; larger ones run in lockstep, whose lane k
        equals an isolated replay of schedule k.
        """
        self.batch_stats["batch_calls"] += 1
        self.batch_stats["batch_schedules"] += len(schedules)
        if len(schedules) < LOCKSTEP_MIN_BATCH:
            return [self._indexed_replay(s) for s in schedules]

        t, energy, flow = self._lockstep(*_flat_queues(
            [self._tensor_rows(s.cpu_queue) for s in schedules],
            [self._tensor_rows(s.gpu_queue) for s in schedules],
            self.tables.width,
        ))
        return [
            self._with_tail(s, float(t[k]), float(energy[k]), float(flow[k]))
            for k, s in enumerate(schedules)
        ]

    def _lockstep(self, flat, pos, min_events):
        """Lockstep replay over one flat array of sentinel-closed queues.

        ``flat`` holds every lane's cpu queue (tensor rows pre-multiplied
        by the table width) and gpu queue, each closed by the idle
        sentinel; ``pos`` is the ``(2, K)`` array of the lanes' start
        cursors, row 0 on the cpu side and row 1 on the gpu side, and no
        lane finishes in fewer than ``min_events`` events — see
        :func:`_sentinel_queues` and :func:`_flat_queues`.  Returns
        per-lane ``(t, energy, flow)`` rows; a lane that met an infeasible
        pair or solo cell has NaN energy (its other outputs are
        meaningless).  Lane arithmetic is bitwise identical to
        :meth:`_indexed_replay` of the same queues.
        """
        # The loop is dominated by numpy dispatch on small per-event
        # arrays, not by lane work, so each op below serves both queue
        # sides at once: ``frac`` and ``pos`` are (2, K), row 0 the cpu
        # side and row 1 the gpu side.  One cursor gather gives both
        # sides' cell parts and one column gather of the table their
        # times and power.  The sentinel cells turn solo events into pair
        # events with an infinitely long idle side, and NaN power marks
        # infeasible cells instead of a validity check.
        table = self.tables.replay_table
        finished = table.shape[1] - 1          # cell (n, n): both sides idle
        K = pos.shape[1]
        out = np.empty((3, K))                 # per lane: t, energy, flow
        if not K:
            return out
        lanes = np.arange(K)
        frac = np.ones((2, K))
        acc = np.zeros((3, K))                 # the live lanes' t, energy, flow
        t, energy, flow = acc
        events = 0
        while True:
            sides = flat[pos]
            cell = sides[0] + sides[1]
            # Each event moves a cursor by at most one job, so no lane
            # can be on the finished cell before ``min_events`` events.
            if events >= min_events and cell.max() == finished:
                # Retire the lanes whose queues both ran out: record their
                # totals and drop them from the state, so the updates
                # below need no mask.
                gone = cell == finished
                out[:, lanes[gone]] = acc[:, gone]
                keep = np.flatnonzero(~gone)
                if not keep.size:
                    break
                lanes, cell = lanes.take(keep), cell.take(keep)
                frac, pos, acc = (
                    a.take(keep, axis=1) for a in (frac, pos, acc)
                )
                t, energy, flow = acc
            events += 1
            x = table.take(cell, axis=1)       # rows t_c, t_g, power
            times = x[:2]
            span = frac * times
            dt = np.minimum(span[0], span[1])
            energy += dt * x[2]
            t += dt
            # A completed side moves its cursor to the next job (or the
            # sentinel) and starts it whole: max(rem, True) is 1.0 since
            # rem <= _EPS < 1, and max(rem, False) is rem since rem > 0.
            rem = frac - dt / times
            done = rem <= _EPS
            frac = np.maximum(rem, done)
            pos += done
            # Same op order as the scalar replay: flow += done * t, with
            # done counting completions this event (0, 1 or 2; exact as
            # a float).
            flow += np.add(done[0], done[1], dtype=np.float64) * t
        return out

    # ------------------------------------------------------------------
    # Population scoring (index matrices in, objective scores out)
    # ------------------------------------------------------------------
    def score_population(self, Qc, len_c, Qg, len_g, *, solo_tail=()):
        """Score a whole population of queue-index matrices in one sweep.

        The population path of :mod:`repro.perf.population`: callers hand
        over ``(K, w)`` matrices of tensor row indices directly (no
        :class:`~repro.core.schedule.CoSchedule` objects, no cache keys),
        and every lane is replayed in lockstep.  ``solo_tail`` is a shared
        tail — a sequence of ``(tensor_index, DeviceKind)`` pairs appended
        to *every* lane, the way refinement candidates share their input
        schedule's tail.

        Returns ``(scores, makespan, energy, flow, bad)``: per-lane
        objective scores (``np.inf`` on bad lanes) plus the raw metric
        arrays and the infeasibility mask.  Feasible lanes are bitwise
        identical to :meth:`_indexed_replay` of the same queues, so a
        population score can always be cross-checked against the
        per-schedule path.
        """
        K = int(Qc.shape[0])
        self.batch_stats["batch_calls"] += 1
        self.batch_stats["batch_schedules"] += K
        self.batch_stats["population_calls"] += 1
        self.batch_stats["population_schedules"] += K
        t, energy, flow = self.tables.add_solo_tail(
            solo_tail,
            *self._lockstep(
                *_sentinel_queues(Qc, len_c, Qg, len_g, self.tables.width)
            ),
        )
        bad = np.isnan(energy)
        scores = np.where(bad, np.inf, self.objective.score(t, energy, flow))
        return scores, t, energy, flow, bad

    def snapshot(self) -> dict[str, float]:
        snap = dict(self.cache.snapshot())
        snap.update({f"tensor_{k}": float(v) for k, v in self.batch_stats.items()})
        return snap
