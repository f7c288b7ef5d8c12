"""Vectorized tensor evaluation backend: table-backed makespan evaluation.

PR 1's :class:`~repro.perf.cache.EvalCache` deduplicates repeated model
queries but leaves every *cold* query on the scalar Python call chain
(``CoRunPredictor.degradations`` -> ``ProfileTable.demand_gbps`` -> staged
bilinear interpolation), one ``(pair, setting)`` at a time.  This module
precomputes the whole question space once per model and answers everything
afterwards with O(1) array lookups:

:class:`TensorModel`
    Dense ``float64`` tensors over the full cross-product
    ``(cpu_job x gpu_job x frequency_setting)`` — degradation pair, co-run
    time pair, pair power, per-cap boolean feasibility masks — plus
    per-``(job, device)`` solo time/power vectors.  Built by vectorizing
    the :class:`~repro.model.interpolation.BilinearGrid` evaluation and the
    :class:`~repro.model.profiler.ProfileTable` lookups over arrays,
    operation for operation, so every element is *bitwise identical* to the
    scalar chain's answer.

:class:`TensorBackedPredictor`
    A drop-in predictor wrapper that serves the hot queries from the tensor
    through the same :class:`~repro.perf.cache.EvalCache` keys the scalar
    :class:`~repro.perf.evaluator.CachingPredictor` uses — identical cache
    hit/miss behavior, but a miss costs an array lookup instead of an
    interpolation chain.  Queries outside the tensor's coverage (unknown
    uids, off-grid frequencies) delegate to the wrapped predictor.

:class:`PairTables`
    Per-(governor, cap) reduction of the tensors: for every (cpu job, gpu
    job) pair the governor's chosen setting and the resulting co-run
    times/power, and for every (job, device) the chosen solo level — the
    complete set of constants a timeline replay consumes.  Argmin ties
    resolve to the first feasible setting in enumeration order, exactly as
    the governors' ``min()`` does.

:class:`BatchScheduleEvaluator`
    A :class:`~repro.perf.evaluator.ScheduleEvaluator` with two replays
    over :class:`PairTables`, each the faster one for its input size:

    * **per-schedule replay**: an O(1)-per-event Python loop, from t=0, for
      single schedules and small batches;
    * **batched lockstep evaluation**: ``evaluate_all`` and
      ``score_population`` score an entire GA population / brute-force
      chunk in one vectorized sweep, advancing all schedules event-by-event
      with masked NumPy updates.

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

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.units import Hertz, PowerScale, Seconds, SpeedScale, Watts
from repro.errors import InfeasibleCapError
from repro.hardware.device import DeviceKind
from repro.perf.cache import EvalCache, ensure_cache
from repro.perf.evaluator import CachingPredictor, ScheduleEvaluator, schedule_key

#: Refuse to materialize pair tensors larger than this many elements each
#: (n_jobs^2 x n_settings).  Beyond it the precompute no longer amortizes
#: and the memory cost stops being negligible; callers fall back to scalar.
MAX_TENSOR_ELEMENTS = 2_000_000

#: Completion tolerance of the mean-field replay (must equal
#: ``repro.core.schedule._EPS``; asserted by the equivalence tests).
_EPS = 1e-12


def _grid_eval(grid, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`BilinearGrid.__call__`, operation for operation.

    Every step mirrors the scalar implementation exactly (same clip,
    ``searchsorted`` side, index clamp, and left-to-right sum order), so
    each output element is bitwise equal to the scalar call at the same
    coordinates.
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
    v00 = v[i, j]
    v01 = v[i, j + 1]
    v10 = v[i + 1, j]
    v11 = v[i + 1, j + 1]
    return (
        v00 * (1 - tx) * (1 - ty)
        + v10 * tx * (1 - ty)
        + v01 * (1 - tx) * ty
        + v11 * tx * ty
    )


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
    """Precomputed dense model tensors for one (predictor, job set).

    ``base`` must be a plain :class:`~repro.model.predictor.CoRunPredictor`
    (exact type — subclasses may override the arithmetic) over an exact
    :class:`~repro.model.profiler.ProfileTable` and a
    :class:`~repro.model.space.DegradationSpace` /
    :class:`~repro.model.space.StagedDegradationSpace`.  Use
    :func:`tensorize`, which performs those checks and memoizes models.
    """

    def __init__(self, base, uids: Sequence[str]) -> None:
        self.base = base
        self.processor = base.processor
        self.uids = tuple(uids)
        self.index = {uid: i for i, uid in enumerate(self.uids)}
        n = len(self.uids)

        cpu_domain = self.processor.cpu.domain
        gpu_domain = self.processor.gpu.domain
        self.cpu_levels = tuple(cpu_domain.levels)
        self.gpu_levels = tuple(gpu_domain.levels)
        n_cpu, n_gpu = len(self.cpu_levels), len(self.gpu_levels)
        self.n_gpu_levels = n_gpu
        # Exact-value level lookup; an off-grid frequency misses and the
        # wrapper delegates to the scalar predictor.
        self._cpu_level_idx = {f: i for i, f in enumerate(self.cpu_levels)}
        self._gpu_level_idx = {f: i for i, f in enumerate(self.gpu_levels)}

        # Settings in processor.settings() enumeration order: cpu-major.
        self.settings = list(self.processor.settings())
        S = len(self.settings)
        lc = np.repeat(np.arange(n_cpu), n_gpu)   # cpu level index of setting s
        lg = np.tile(np.arange(n_gpu), n_cpu)     # gpu level index of setting s

        # Per-(job, device) level vectors, straight from the profile table.
        table = base.table
        shapes = {DeviceKind.CPU: (n, n_cpu), DeviceKind.GPU: (n, n_gpu)}
        self.solo_time = {k: np.empty(s) for k, s in shapes.items()}
        self.solo_chip_power = {k: np.empty(s) for k, s in shapes.items()}
        self._demand = {k: np.empty(s) for k, s in shapes.items()}
        self._own_power = {k: np.empty(s) for k, s in shapes.items()}
        for kind in DeviceKind:
            for i, uid in enumerate(self.uids):
                prof = table._profiles[(uid, kind)]
                self.solo_time[kind][i] = prof.time_s
                self.solo_chip_power[kind][i] = prof.chip_power_w
                self._demand[kind][i] = prof.demand_gbps
                self._own_power[kind][i] = prof.own_power_w

        # Broadcast coordinates over the (cpu_job i, gpu_job j, setting s) cube.
        bw_c = np.broadcast_to(
            self._demand[DeviceKind.CPU][:, lc][:, None, :], (n, n, S)
        )
        bw_g = np.broadcast_to(
            self._demand[DeviceKind.GPU][:, lg][None, :, :], (n, n, S)
        )

        space = base.space
        self.deg_c, self.deg_g = _degradation_tensors(space, bw_c, bw_g, self.settings)

        time_c = self._demand[DeviceKind.CPU]  # placeholder to appease linters
        del time_c
        t_solo_c = self.solo_time[DeviceKind.CPU][:, lc][:, None, :]
        t_solo_g = self.solo_time[DeviceKind.GPU][:, lg][None, :, :]
        # Same binary-op order as CoRunPredictor.corun_times: t * (1.0 + d).
        self.t_corun_c = t_solo_c * (1.0 + self.deg_c)
        self.t_corun_g = t_solo_g * (1.0 + self.deg_g)

        # Same op order as CoRunPredictor.pair_power_w:
        # own_c + own_g + (base + per_gbps * (bw_c + bw_g)).
        uncore = self.processor.power.uncore
        own_c = self._own_power[DeviceKind.CPU][:, lc][:, None, :]
        own_g = self._own_power[DeviceKind.GPU][:, lg][None, :, :]
        self.pair_power = own_c + own_g + (
            uncore.base_w + uncore.per_gbps_w * (bw_c + bw_g)
        )

        self._cap_masks: dict[float, _CapMasks] = {}
        self._pair_tables: dict[tuple, object] = {}
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
        clone._scaled_memo = {}
        clone.node_name = node_name
        if len(self._scaled_memo) >= 16:
            self._scaled_memo.pop(next(iter(self._scaled_memo)))
        self._scaled_memo[key] = clone
        return clone

    # ------------------------------------------------------------------
    # Coverage
    # ------------------------------------------------------------------
    def covers(self, uid: str) -> bool:
        return uid in self.index

    def setting_index(self, setting) -> int | None:
        """Index of ``setting`` in enumeration order, or ``None`` off-grid."""
        i = self._cpu_level_idx.get(setting.cpu_ghz)
        j = self._gpu_level_idx.get(setting.gpu_ghz)
        if i is None or j is None:
            return None
        return i * self.n_gpu_levels + j

    def level_index(self, kind: DeviceKind, f_ghz: Hertz) -> int | None:
        levels = (
            self._cpu_level_idx if kind is DeviceKind.CPU else self._gpu_level_idx
        )
        return levels.get(f_ghz)

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

    # ------------------------------------------------------------------
    # Predictor-equivalent queries (bitwise identical to the scalar chain)
    # ------------------------------------------------------------------
    def degradations(self, cpu_uid, gpu_uid, s: int) -> tuple[float, float]:
        i, j = self.index[cpu_uid], self.index[gpu_uid]
        return (float(self.deg_c[i, j, s]), float(self.deg_g[i, j, s]))

    def corun_times(self, cpu_uid, gpu_uid, s: int) -> tuple[Seconds, Seconds]:
        i, j = self.index[cpu_uid], self.index[gpu_uid]
        return (float(self.t_corun_c[i, j, s]), float(self.t_corun_g[i, j, s]))

    def pair_power_w(self, cpu_uid, gpu_uid, s: int) -> Watts:
        i, j = self.index[cpu_uid], self.index[gpu_uid]
        return float(self.pair_power[i, j, s])

    def feasible_pair_settings(self, cpu_uid, gpu_uid, cap_w: Watts) -> tuple:
        i, j = self.index[cpu_uid], self.index[gpu_uid]
        flags = self.masks(cap_w).pair_ok[i, j]
        return tuple(self.settings[s] for s in np.flatnonzero(flags))

    def feasible_solo_levels(self, uid, kind: DeviceKind, cap_w: Watts) -> tuple:
        i = self.index[uid]
        flags = self.masks(cap_w).solo_ok[kind][i]
        levels = self.cpu_levels if kind is DeviceKind.CPU else self.gpu_levels
        return tuple(levels[int(k)] for k in np.flatnonzero(flags))

    def best_solo(
        self, uid, kind: DeviceKind, cap_w: Watts
    ) -> tuple[Hertz, Seconds]:
        i = self.index[uid]
        masks = self.masks(cap_w)
        if not masks.best_solo_valid[kind][i]:
            # Identical message/fields to CoRunPredictor.best_solo (or to
            # NodePredictor.best_solo when this model is node-scaled).
            if self.node_name is not None:
                raise InfeasibleCapError(
                    f"{uid} cannot run on {kind} under a {cap_w} W cap at "
                    f"any level on node {self.node_name}",
                    cap_w=cap_w,
                    jobs=(uid,),
                    node=self.node_name,
                )
            raise InfeasibleCapError(
                f"{uid} cannot run on {kind} under a {cap_w} W cap at any level",
                cap_w=cap_w,
                jobs=(uid,),
            )
        levels = self.cpu_levels if kind is DeviceKind.CPU else self.gpu_levels
        idx = int(masks.best_solo_idx[kind][i])
        return levels[idx], float(self.solo_time[kind][i, idx])

    def solo_time_at(self, uid, kind: DeviceKind, f_ghz: Hertz) -> Seconds | None:
        """Solo time at an exact level, or ``None`` when off-grid/unknown."""
        if uid not in self.index:
            return None
        li = self.level_index(kind, f_ghz)
        if li is None:
            return None
        return float(self.solo_time[kind][self.index[uid], li])

    def solo_power_at(self, uid, kind: DeviceKind, f_ghz: Hertz) -> Watts | None:
        if uid not in self.index:
            return None
        li = self.level_index(kind, f_ghz)
        if li is None:
            return None
        return float(self.solo_chip_power[kind][self.index[uid], li])


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
    S = bw_c.shape[2]
    weights = np.empty((len(space.anchors), S))
    for s, setting in enumerate(settings):
        weights[:, s] = space._weights(setting)
    acc_c = np.zeros(bw_c.shape)
    acc_g = np.zeros(bw_c.shape)
    for a, anchor in enumerate(space.anchors):
        w = weights[a][None, None, :]
        acc_c = acc_c + w * _grid_eval(anchor.cpu_grid, bw_c, bw_g)
        acc_g = acc_g + w * _grid_eval(anchor.gpu_grid, bw_c, bw_g)
    return np.maximum(acc_c, 0.0), np.maximum(acc_g, 0.0)


# ----------------------------------------------------------------------
# Model memo: one TensorModel per (base predictor, job set)
# ----------------------------------------------------------------------
_MODEL_MEMO: OrderedDict = OrderedDict()
_MODEL_MEMO_LIMIT = 8


def tensorize(predictor, uids: Sequence[str] | None = None):
    """Wrap ``predictor`` in a :class:`TensorBackedPredictor`, or ``None``.

    Returns ``None`` whenever exactness cannot be guaranteed by the tensor
    arithmetic — the base predictor is not *exactly* a
    :class:`~repro.model.predictor.CoRunPredictor` (oracle or noisy
    variants subclass or replace it), the space/table/power models are
    subclassed, requested uids are missing from the table, or the tensors
    would exceed :data:`MAX_TENSOR_ELEMENTS`.  Callers treat ``None`` as
    "use the scalar path".

    Models are memoized per (base predictor identity, uid set), so every
    :class:`~repro.core.context.SchedulingContext` built over the same
    model reuses one precompute.
    """
    from repro.hardware.power import UncorePowerModel
    from repro.model.interpolation import BilinearGrid
    from repro.model.predictor import CoRunPredictor
    from repro.model.profiler import ProfileTable
    from repro.model.space import DegradationSpace, StagedDegradationSpace

    inner = predictor
    while isinstance(inner, TensorBackedPredictor):
        inner = inner.inner
    base = inner.inner if isinstance(inner, CachingPredictor) else inner
    # A fleet node's scaled view is tensorizable: build (or reuse) the base
    # model, then clone it through the node's scaling.  Lazy import — perf
    # must not import core at module load.
    node = None
    node_predictor_type = _node_predictor_type()
    if node_predictor_type is not None and type(base) is node_predictor_type:
        node = base.node
        base = base.inner
        while isinstance(base, (TensorBackedPredictor, CachingPredictor)):
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

    table_uids = tuple(sorted(base.table.uids))
    if uids is not None:
        need = tuple(sorted(set(uids)))
        if any(uid not in base.table for uid in need):
            return None
    else:
        need = table_uids
    n_settings = base.processor.n_settings

    def fits(us: tuple) -> bool:
        return len(us) * len(us) * n_settings <= MAX_TENSOR_ELEMENTS

    # Prefer a table-wide model (shared across job subsets); fall back to
    # the requested subset when the full table is too large.
    if fits(table_uids):
        chosen = table_uids
    elif fits(need):
        chosen = need
    else:
        return None

    key = (id(base), chosen)
    model = _MODEL_MEMO.get(key)
    if model is None or model.base is not base:
        model = TensorModel(base, chosen)
        while len(_MODEL_MEMO) >= _MODEL_MEMO_LIMIT:
            _MODEL_MEMO.popitem(last=False)
        _MODEL_MEMO[key] = model
    else:
        _MODEL_MEMO.move_to_end(key)
    if node is not None:
        model = model.scaled(node.speed_scale, node.power_scale, node.name)
    return TensorBackedPredictor(inner, model)


def _node_predictor_type():
    """The fleet NodePredictor class, or ``None`` before core is loaded.

    ``sys.modules`` lookup instead of an import: if nothing has touched
    ``repro.core.fleet`` yet, no predictor we receive can be a
    NodePredictor, and perf stays import-independent of core.
    """
    import sys

    mod = sys.modules.get("repro.core.fleet")
    return getattr(mod, "NodePredictor", None) if mod is not None else None


class TensorBackedPredictor:
    """Predictor facade answering hot queries from a :class:`TensorModel`.

    Uses the *same* cache keys as
    :class:`~repro.perf.evaluator.CachingPredictor` (sharing its cache when
    wrapping one), so hit/miss accounting and warm-cache behavior are
    indistinguishable from the scalar stack — only the cost of a miss
    changes.  Queries the tensor cannot answer exactly delegate to the
    wrapped predictor.
    """

    def __init__(self, inner, tensor: TensorModel) -> None:
        self.inner = inner
        self.tensor = tensor
        cache = getattr(inner, "cache", None)
        self.cache = cache if isinstance(cache, EvalCache) else ensure_cache(None)

    # -- delegated identity -------------------------------------------------
    @property
    def processor(self):
        return self.inner.processor

    @property
    def table(self):
        return self.inner.table

    @property
    def space(self):
        return self.inner.space

    def __getattr__(self, name: str):
        if name.startswith("_") or "inner" not in self.__dict__:
            raise AttributeError(name)
        return getattr(self.inner, name)

    # -- tensor-served hot queries ------------------------------------------
    def _pair_s(self, cpu_uid, gpu_uid, setting) -> int | None:
        t = self.tensor
        if cpu_uid not in t.index or gpu_uid not in t.index:
            return None
        return t.setting_index(setting)

    def degradations(self, cpu_uid, gpu_uid, setting):
        s = self._pair_s(cpu_uid, gpu_uid, setting)
        if s is None:
            return self.inner.degradations(cpu_uid, gpu_uid, setting)
        return self.cache.get_or_compute(
            ("deg", cpu_uid, gpu_uid, setting),
            lambda: self.tensor.degradations(cpu_uid, gpu_uid, s),
        )

    def degradation(self, uid, kind, partner_uid, setting):
        if kind is DeviceKind.CPU:
            return self.degradations(uid, partner_uid, setting)[0]
        return self.degradations(partner_uid, uid, setting)[1]

    def corun_times(self, cpu_uid, gpu_uid, setting):
        s = self._pair_s(cpu_uid, gpu_uid, setting)
        if s is None:
            return self.inner.corun_times(cpu_uid, gpu_uid, setting)
        return self.cache.get_or_compute(
            ("corun", cpu_uid, gpu_uid, setting),
            lambda: self.tensor.corun_times(cpu_uid, gpu_uid, s),
        )

    def pair_power_w(self, cpu_uid, gpu_uid, setting):
        s = self._pair_s(cpu_uid, gpu_uid, setting)
        if s is None:
            return self.inner.pair_power_w(cpu_uid, gpu_uid, setting)
        return self.cache.get_or_compute(
            ("power", cpu_uid, gpu_uid, setting),
            lambda: self.tensor.pair_power_w(cpu_uid, gpu_uid, s),
        )

    def feasible_pair_settings(self, cpu_uid, gpu_uid, cap_w):
        t = self.tensor
        if cpu_uid not in t.index or gpu_uid not in t.index:
            return self.inner.feasible_pair_settings(cpu_uid, gpu_uid, cap_w)
        feasible = self.cache.get_or_compute(
            ("feas", cpu_uid, gpu_uid, cap_w),
            lambda: t.feasible_pair_settings(cpu_uid, gpu_uid, cap_w),
        )
        return list(feasible)

    def require_feasible_pair_settings(self, cpu_uid, gpu_uid, cap_w):
        feasible = self.feasible_pair_settings(cpu_uid, gpu_uid, cap_w)
        if not feasible:
            raise InfeasibleCapError(
                f"no frequency setting keeps pair ({cpu_uid}, {gpu_uid}) "
                f"within the {cap_w} W cap",
                cap_w=cap_w,
                jobs=(cpu_uid, gpu_uid),
            )
        return feasible

    def feasible_solo_levels(self, uid, kind, cap_w):
        if uid not in self.tensor.index:
            return self.inner.feasible_solo_levels(uid, kind, cap_w)
        feasible = self.cache.get_or_compute(
            ("feas_solo", uid, kind, cap_w),
            lambda: self.tensor.feasible_solo_levels(uid, kind, cap_w),
        )
        return list(feasible)

    def best_solo(self, uid, kind, cap_w):
        if uid not in self.tensor.index:
            return self.inner.best_solo(uid, kind, cap_w)
        return self.cache.get_or_compute(
            ("best_solo", uid, kind, cap_w),
            lambda: self.tensor.best_solo(uid, kind, cap_w),
        )

    # -- cheap lookups, uncached like CachingPredictor ----------------------
    def solo_time(self, uid, kind, f_ghz):
        t = self.tensor.solo_time_at(uid, kind, f_ghz)
        return t if t is not None else self.inner.solo_time(uid, kind, f_ghz)

    def solo_power_w(self, uid, kind, f_ghz):
        p = self.tensor.solo_power_at(uid, kind, f_ghz)
        return p if p is not None else self.inner.solo_power_w(uid, kind, f_ghz)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TensorBackedPredictor({self.inner!r})"


class PairTables:
    """Governor-resolved replay constants for one (tensor, governor, cap).

    For every (cpu job, gpu job) pair: the governor's chosen setting index
    and the resulting co-run times and pair power; for every (job, device):
    the chosen solo level's time and chip power.  These are exactly the
    quantities the mean-field replay consumes, so a replay over the tables
    is bitwise identical to one over (governor, predictor) — with the
    single exception of infeasible combinations, which are flagged invalid
    here and re-raised through the scalar path for identical errors.
    """

    def __init__(self, tensor, cap_w, pair_valid, pair_t_c, pair_t_g,
                 pair_power, solo_valid, solo_t, solo_power):
        self.tensor = tensor
        self.cap_w = cap_w
        self.pair_valid = pair_valid
        self.pair_t_c = pair_t_c
        self.pair_t_g = pair_t_g
        self.pair_power = pair_power
        self.solo_valid = solo_valid      # kind -> (n,) bool
        self.solo_t = solo_t              # kind -> (n,) float
        self.solo_power = solo_power      # kind -> (n,) float
        self._packed = None

    @property
    def packed(self):
        """Channel-stacked copies of the tables for single-gather replay.

        ``(pair, solo_cpu, solo_gpu)``, every row laid out as
        ``[t_c, t_g, power, valid]`` — pair is ``(n, n, 4)``, the solos are
        ``(n, 4)`` with the device's solo time in its own slot and a
        harmless ``1.0`` in the idle device's slot (that channel is only
        ever read branch-masked).  One fancy gather per table per replay
        event instead of one per field; values are exact copies, validity
        is 1.0/0.0.
        """
        if self._packed is None:
            pair = np.empty(self.pair_t_c.shape + (4,))
            pair[..., 0] = self.pair_t_c
            pair[..., 1] = self.pair_t_g
            pair[..., 2] = self.pair_power
            pair[..., 3] = self.pair_valid
            solo = {}
            for kind in DeviceKind:
                s = np.ones((self.pair_t_c.shape[0], 4))
                s[:, 0 if kind is DeviceKind.CPU else 1] = self.solo_t[kind]
                s[:, 2] = self.solo_power[kind]
                s[:, 3] = self.solo_valid[kind]
                solo[kind] = s
            self._packed = (pair, solo[DeviceKind.CPU], solo[DeviceKind.GPU])
        return self._packed

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
        from repro.core.objectives import EnergyAwareGovernor, Objective

        if getattr(governor, "cap_w", None) != cap_w:
            return None
        memo_key = (
            type(governor).__qualname__,
            getattr(governor, "objective", None),
            cap_w,
        )
        cached = tensor._pair_tables.get(memo_key)
        if cached is not None:
            return cached
        masks = tensor.masks(cap_w)
        if type(governor) is ModelGovernor:
            # min over feasible settings of sum(corun_times) == t_c + t_g.
            pair_cost = tensor.t_corun_c + tensor.t_corun_g
            solo_cost = None
        elif type(governor) is EnergyAwareGovernor:
            # pair_energy_j: power * (t_c + t_g); EDP: energy * max(t_c, t_g).
            from repro.core.objectives import MAKESPAN_ENERGY_RHO

            energy = tensor.pair_power * (tensor.t_corun_c + tensor.t_corun_g)
            if governor.objective is Objective.ENERGY:
                pair_cost = energy
            elif governor.objective is Objective.MAKESPAN_ENERGY:
                # EnergyAwareGovernor._pair_cost order: max + RHO * energy.
                pair_cost = (
                    np.maximum(tensor.t_corun_c, tensor.t_corun_g)
                    + MAKESPAN_ENERGY_RHO * energy
                )
            else:
                pair_cost = energy * np.maximum(tensor.t_corun_c, tensor.t_corun_g)
            solo_cost = {}
            for kind in DeviceKind:
                # solo_energy_j: chip_power * solo_time; EDP multiplies by
                # solo_time again (EnergyAwareGovernor._solo_cost order).
                e = tensor.solo_chip_power[kind] * tensor.solo_time[kind]
                if governor.objective is Objective.ENERGY:
                    solo_cost[kind] = e
                elif governor.objective is Objective.MAKESPAN_ENERGY:
                    solo_cost[kind] = (
                        tensor.solo_time[kind] + MAKESPAN_ENERGY_RHO * e
                    )
                else:
                    solo_cost[kind] = e * tensor.solo_time[kind]
        else:
            return None

        with np.errstate(invalid="ignore"):
            masked = np.where(masks.pair_ok, pair_cost, np.inf)
        sidx = np.argmin(masked, axis=2)
        pair_valid = masks.pair_ok.any(axis=2)
        take = np.take_along_axis
        pair_t_c = take(tensor.t_corun_c, sidx[..., None], axis=2)[..., 0]
        pair_t_g = take(tensor.t_corun_g, sidx[..., None], axis=2)[..., 0]
        pair_power = take(tensor.pair_power, sidx[..., None], axis=2)[..., 0]

        solo_valid, solo_t, solo_power = {}, {}, {}
        n = len(tensor.uids)
        rows = np.arange(n)
        for kind in DeviceKind:
            if solo_cost is None:
                idx = masks.best_solo_idx[kind]
            else:
                with np.errstate(invalid="ignore"):
                    c = np.where(masks.solo_ok[kind], solo_cost[kind], np.inf)
                idx = np.argmin(c, axis=1)
            solo_valid[kind] = masks.best_solo_valid[kind]
            solo_t[kind] = tensor.solo_time[kind][rows, idx]
            solo_power[kind] = tensor.solo_chip_power[kind][rows, idx]
        tables = cls(
            tensor, cap_w, pair_valid, pair_t_c, pair_t_g, pair_power,
            solo_valid, solo_t, solo_power,
        )
        if len(tensor._pair_tables) >= 16:
            tensor._pair_tables.pop(next(iter(tensor._pair_tables)))
        tensor._pair_tables[memo_key] = tables
        return tables


class BatchScheduleEvaluator(ScheduleEvaluator):
    """A :class:`ScheduleEvaluator` replaying over :class:`PairTables`.

    Drop-in compatible (same cache, same governor, same scores to the bit)
    but with two fast paths:

    * single schedules and batches of up to 4 replay one at a time, from
      t=0, with O(1) table lookups per event;
    * larger ``evaluate_all`` batches and ``score_population`` advance a
      whole population in one masked-NumPy lockstep sweep.

    Schedules the tables cannot replay (uncovered uids, infeasible
    pair/solo combinations, no tables for the governor) fall back to the
    scalar path, preserving exact error behavior.
    """

    backend = "tensor"

    def __init__(self, predictor, governor, cache=None, objective="makespan",
                 *, tensor: TensorModel, tables: PairTables | None):
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
        if self.tables is None:
            return False
        index = self.tensor.index
        return all(uid in index for uid in schedule.all_uids())

    def _try_indexed(self, schedule):
        """(makespan, energy, flow) via the tables, or ``None`` for fallback."""
        if not self._indexable(schedule):
            self.batch_stats["scalar_fallbacks"] += 1
            return None
        result = self._indexed_replay(schedule)
        if result is None:
            self.batch_stats["scalar_fallbacks"] += 1
        return result

    def _indexed_replay(self, schedule):
        """(makespan, energy, flow) of one schedule replayed from t=0, or
        ``None`` if it hits an infeasible pair or solo combination."""
        self.batch_stats["full_replays"] += 1
        tb = self.tables
        index = self.tensor.index
        cpu = [index[j.uid] for j in schedule.cpu_queue]
        gpu = [index[j.uid] for j in schedule.gpu_queue]

        cp = gp = 0
        cur_c = cur_g = -1
        frac_c = frac_g = t = energy = flow = 0.0
        kinds = DeviceKind
        while True:
            if cur_c < 0 and cp < len(cpu):
                cur_c, frac_c = cpu[cp], 1.0
                cp += 1
            if cur_g < 0 and gp < len(gpu):
                cur_g, frac_g = gpu[gp], 1.0
                gp += 1
            if cur_c < 0 and cur_g < 0:
                break

            if cur_c >= 0 and cur_g >= 0:
                if not tb.pair_valid[cur_c, cur_g]:
                    return None
                t_c = float(tb.pair_t_c[cur_c, cur_g])
                t_g = float(tb.pair_t_g[cur_c, cur_g])
                power = float(tb.pair_power[cur_c, cur_g])
                dt = min(frac_c * t_c, frac_g * t_g)
            elif cur_c >= 0:
                if not tb.solo_valid[kinds.CPU][cur_c]:
                    return None
                t_c = float(tb.solo_t[kinds.CPU][cur_c])
                power = float(tb.solo_power[kinds.CPU][cur_c])
                dt = frac_c * t_c
            else:
                if not tb.solo_valid[kinds.GPU][cur_g]:
                    return None
                t_g = float(tb.solo_t[kinds.GPU][cur_g])
                power = float(tb.solo_power[kinds.GPU][cur_g])
                dt = frac_g * t_g
            energy += dt * power

            done = 0
            if cur_c >= 0:
                rem = frac_c - dt / t_c
                if rem <= _EPS:
                    cur_c, frac_c, done = -1, 0.0, done + 1
                else:
                    frac_c = rem
            if cur_g >= 0:
                rem = frac_g - dt / t_g
                if rem <= _EPS:
                    cur_g, frac_g, done = -1, 0.0, done + 1
                else:
                    frac_g = rem
            t += dt
            flow += done * t
        return self._add_solo_tail(schedule.solo_tail, t, energy, flow)

    def _add_solo_tail(self, solo_tail, t, energy, flow):
        """Replay totals plus ``solo_tail``, in the scalar tail's op order;
        ``None`` if a tail job has no feasible solo level."""
        tb = self.tables
        index = self.tensor.index
        for job, kind in solo_tail:
            i = index[job.uid]
            if not tb.solo_valid[kind][i]:
                return None
            solo_s = float(tb.solo_t[kind][i])
            t += solo_s
            flow += t
            energy += solo_s * float(tb.solo_power[kind][i])
        return t, energy, flow

    # ------------------------------------------------------------------
    # ScheduleEvaluator overrides
    # ------------------------------------------------------------------
    def _compute(self, schedule) -> float:
        if self.objective == "makespan":
            result = self._try_indexed(schedule)
            if result is not None:
                return result[0]
            return super()._compute(schedule)
        # Energy/EDP route through metrics() below, which is table-backed.
        return self.metrics(schedule).score(self.objective)

    def metrics(self, schedule):
        def compute():
            result = self._try_indexed(schedule)
            if result is not None:
                from repro.core.schedule import PredictedMetrics

                return PredictedMetrics(
                    makespan_s=result[0], energy_j=result[1], flow_s=result[2]
                )
            from repro.core.schedule import predicted_metrics

            return predicted_metrics(schedule, self.predictor, self.governor)

        return self.cache.get_or_compute(self._metrics_key(schedule), compute)

    # ------------------------------------------------------------------
    # Batched lockstep evaluation
    # ------------------------------------------------------------------
    def evaluate_batch(self, schedules: Sequence) -> list[float]:
        """Score a batch in one vectorized sweep (scores also memoized)."""
        return self.evaluate_all(schedules, executor=None)

    def evaluate_all(self, schedules: Sequence, executor=None) -> list[float]:
        from repro.perf.parallel import map_makespans, map_predicted_metrics

        pending: dict[tuple, object] = {}
        for s in schedules:
            key = self._key(s)
            if key not in self.cache and key not in pending:
                pending[key] = s
        if pending:
            todo = list(pending.values())
            covered = [s for s in todo if self._indexable(s)]
            rest = [s for s in todo if not self._indexable(s)]
            if covered:
                batch = self._batch_replay(covered)
                if batch is None:
                    # An infeasible schedule is in the batch: re-run the
                    # whole todo set through the scalar path so the first
                    # infeasible schedule (in todo order) raises exactly as
                    # a serial evaluation would.
                    return super().evaluate_all(schedules, executor)
                from repro.core.schedule import PredictedMetrics

                for s, (mk, en, fl) in zip(covered, batch):
                    if self.objective == "makespan":
                        self.prime(s, mk)
                    else:
                        m = PredictedMetrics(makespan_s=mk, energy_j=en, flow_s=fl)
                        self.cache.prime(self._metrics_key(s), m)
                        self.prime(s, m.score(self.objective))
            if rest:
                if self.objective == "makespan":
                    values = map_makespans(
                        executor, self.predictor, self.governor, rest
                    )
                    for s, v in zip(rest, values):
                        self.prime(s, v)
                else:
                    metrics = map_predicted_metrics(
                        executor, self.predictor, self.governor, rest
                    )
                    for s, m in zip(rest, metrics):
                        self.cache.prime(self._metrics_key(s), m)
                        self.prime(s, m.score(self.objective))
            # Fan-out/batch results count as evaluations, not hits.
            self.cache.stats.misses += len(todo)
            self.cache.stats.hits -= len(todo)
        return [self(s) for s in schedules]

    def _batch_replay(self, schedules):
        """Replay of many schedules; ``None`` if any is infeasible.

        Up to 4 schedules replay one at a time; larger batches run in
        lockstep, where masked in-place ufuncs leave finished lanes
        untouched, so lane k's result equals an isolated replay.
        """
        self.batch_stats["batch_calls"] += 1
        self.batch_stats["batch_schedules"] += len(schedules)
        if len(schedules) <= 4:
            out = []
            for s in schedules:
                result = self._indexed_replay(s)
                if result is None:
                    return None
                out.append(result)
            return out

        index = self.tensor.index
        K = len(schedules)
        cpu_lists = [[index[j.uid] for j in s.cpu_queue] for s in schedules]
        gpu_lists = [[index[j.uid] for j in s.gpu_queue] for s in schedules]
        len_c = np.array([len(q) for q in cpu_lists])
        len_g = np.array([len(q) for q in gpu_lists])
        wc = max(1, int(len_c.max()) if K else 1)
        wg = max(1, int(len_g.max()) if K else 1)
        Qc = np.full((K, wc), -1, dtype=np.int64)
        Qg = np.full((K, wg), -1, dtype=np.int64)
        for k, q in enumerate(cpu_lists):
            Qc[k, : len(q)] = q
        for k, q in enumerate(gpu_lists):
            Qg[k, : len(q)] = q

        t, energy, flow, bad = self._replay_matrices(Qc, len_c, Qg, len_g)
        if bad.any():
            return None
        out = []
        for k, s in enumerate(schedules):
            result = self._add_solo_tail(
                s.solo_tail, float(t[k]), float(energy[k]), float(flow[k])
            )
            if result is None:
                return None
            out.append(result)
        return out

    def _replay_matrices(self, Qc, len_c, Qg, len_g):
        """Lockstep replay over padded queue-index matrices.

        ``Qc``/``Qg`` are ``(K, w)`` int matrices of tensor job indices
        (padding value irrelevant past each lane's length); ``len_c`` /
        ``len_g`` the per-lane queue lengths.  Returns per-lane
        ``(t, energy, flow, bad)`` arrays, where ``bad`` flags lanes that
        hit an infeasible pair or solo combination (their other outputs
        are meaningless).  Lane arithmetic is bitwise identical to
        :meth:`_indexed_replay` of the same queues.
        """
        # The loop body is dominated by numpy dispatch overhead on small
        # per-event arrays, so the tables are read through channel-stacked
        # copies (one fancy gather per table instead of one per field) and
        # frozen lanes are preserved with masked in-place ufuncs instead of
        # fresh ``np.where`` allocations.  Both are bitwise-neutral: the
        # packed tables hold exact copies, and ``out=..., where=mask``
        # writes the identical values a masked ``np.where`` would keep.
        pair_pack, solo_c_pack, solo_g_pack = self.tables.packed
        K = Qc.shape[0]
        pc = np.zeros(K, dtype=np.int64)
        pg = np.zeros(K, dtype=np.int64)
        cur_c = np.full(K, -1, dtype=np.int64)
        cur_g = np.full(K, -1, dtype=np.int64)
        frac_c = np.zeros(K)
        frac_g = np.zeros(K)
        t = np.zeros(K)
        energy = np.zeros(K)
        flow = np.zeros(K)
        active = np.ones(K, dtype=bool)
        bad = np.zeros(K, dtype=bool)

        with np.errstate(invalid="ignore", divide="ignore"):
            while True:
                need_c = active & (cur_c < 0) & (pc < len_c)
                if need_c.any():
                    rows = np.nonzero(need_c)[0]
                    cur_c[rows] = Qc[rows, pc[rows]]
                    frac_c[rows] = 1.0
                    pc[rows] += 1
                need_g = active & (cur_g < 0) & (pg < len_g)
                if need_g.any():
                    rows = np.nonzero(need_g)[0]
                    cur_g[rows] = Qg[rows, pg[rows]]
                    frac_g[rows] = 1.0
                    pg[rows] += 1
                mask_c = cur_c >= 0
                mask_g = cur_g >= 0
                active &= mask_c | mask_g
                if not active.any():
                    break

                ic = np.maximum(cur_c, 0)
                ig = np.maximum(cur_g, 0)
                run_c = active & mask_c
                run_g = active & mask_g
                pair = run_c & run_g
                only_c = run_c ^ pair
                # One gather per table; rows for lanes outside a branch are
                # garbage but every read below is branch-masked.
                row = np.where(
                    pair[:, None],
                    pair_pack[ic, ig],
                    np.where(only_c[:, None], solo_c_pack[ic], solo_g_pack[ig]),
                )
                newbad = active & (row[:, 3] == 0.0)
                if newbad.any():
                    bad |= newbad
                    active &= ~newbad
                    if not active.any():
                        break
                    keep = ~newbad
                    pair &= keep
                    only_c &= keep
                    run_c &= active
                    run_g &= active

                t_c = row[:, 0]
                t_g = row[:, 1]
                dt_c = frac_c * t_c
                dt_g = frac_g * t_g
                dt = np.where(
                    pair, np.minimum(dt_c, dt_g), np.where(only_c, dt_c, dt_g)
                )
                np.add(energy, dt * row[:, 2], out=energy, where=active)

                rem_c = frac_c - dt / t_c
                done_c = run_c & (rem_c <= _EPS)
                np.copyto(frac_c, rem_c, where=run_c)
                np.copyto(frac_c, 0.0, where=done_c)
                np.copyto(cur_c, -1, where=done_c)
                rem_g = frac_g - dt / t_g
                done_g = run_g & (rem_g <= _EPS)
                np.copyto(frac_g, rem_g, where=run_g)
                np.copyto(frac_g, 0.0, where=done_g)
                np.copyto(cur_g, -1, where=done_g)
                np.add(t, dt, out=t, where=active)
                # Same op order as the scalar replay: flow += done * t,
                # with done counting completions this event (0, 1 or 2).
                ndone = done_c.astype(np.int64) + done_g.astype(np.int64)
                flow += ndone * t

        return t, energy, flow, bad

    # ------------------------------------------------------------------
    # Population scoring (index matrices in, objective scores out)
    # ------------------------------------------------------------------
    def score_population(self, Qc, len_c, Qg, len_g, *, solo_tail=()):
        """Score a whole population of queue-index matrices in one sweep.

        The population path of :mod:`repro.perf.population`: callers hand
        over ``(K, w)`` matrices of tensor job indices directly (no
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
        if self.tables is None:
            raise ValueError(
                "score_population needs pair tables; this evaluator was "
                "built without them (fall back to evaluate_all)"
            )
        K = int(Qc.shape[0])
        self.batch_stats["batch_calls"] += 1
        self.batch_stats["batch_schedules"] += K
        self.batch_stats["population_calls"] += 1
        self.batch_stats["population_schedules"] += K
        t, energy, flow, bad = self._replay_matrices(Qc, len_c, Qg, len_g)
        tb = self.tables
        for i, kind in solo_tail:
            if not tb.solo_valid[kind][i]:
                bad = np.ones_like(bad)
                break
            # Same op order as the scalar tail: t += solo; flow += t;
            # energy += solo * power — applied to every lane at once.
            solo_s = float(tb.solo_t[kind][i])
            t = t + solo_s
            flow = flow + t
            energy = energy + solo_s * float(tb.solo_power[kind][i])
        scores = self._objective_scores(t, energy, flow)
        scores = np.where(bad, np.inf, scores)
        return scores, t, energy, flow, bad

    def _objective_scores(self, makespan, energy, flow):
        """Vectorized :meth:`PredictedMetrics.score` over metric arrays."""
        if self.objective == "makespan":
            return makespan
        if self.objective == "energy":
            return energy
        if self.objective == "edp":
            return energy * makespan
        if self.objective == "flow_time":
            return flow
        # makespan_energy — lazy core import, as everywhere in this module.
        from repro.core.objectives import MAKESPAN_ENERGY_RHO

        return makespan + MAKESPAN_ENERGY_RHO * energy

    def snapshot(self) -> dict[str, float]:
        snap = dict(self.cache.snapshot())
        snap.update({f"tensor_{k}": float(v) for k, v in self.batch_stats.items()})
        return snap
