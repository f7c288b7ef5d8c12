"""Memoized evaluation primitives shared by every scheduler.

:class:`CachingPredictor` wraps any predictor-shaped object (the
interpolation :class:`~repro.model.predictor.CoRunPredictor`, the oracle,
the robustness studies' noisy variants) and memoizes its pure hot queries —
degradations, co-run times, pair powers, cap feasibility — in a shared
:class:`~repro.perf.cache.EvalCache`.  HCS's greedy pairing, the HCS+
refinement passes, the GA fitness loop, A*, and brute force all re-ask the
same (pair, setting) questions thousands of times; with one shared cache
they each pay only once.

:class:`ScheduleEvaluator` memoizes whole predicted makespans keyed by the
schedule's uid signature — the quantity HCS+ refinement, GA fitness, and
brute force minimize.  A schedule that meets a combination no setting fits
under the cap scores ``inf``: a move every search avoids, not an error.

Both wrappers are exact: a memoized answer is byte-identical to the wrapped
computation, so cached and uncached searches produce identical schedules.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import InfeasibleCapError
from repro.objective import Objective
from repro.units import Hertz, Seconds, Watts
from repro.perf.cache import EvalCache, ensure_cache

#: ``(makespan, energy, flow)`` of an infeasible schedule: ``inf`` scores.
INFEASIBLE = (float("inf"),) * 3


class CachingPredictor:
    """A drop-in predictor wrapper with content-keyed memoization.

    Delegates attribute access (``processor``, ``table``, ``space``, any
    extra methods) to the wrapped predictor, so it is substitutable wherever
    a :class:`CoRunPredictor` is expected.
    """

    def __init__(self, predictor, cache: EvalCache | None = None) -> None:
        self.inner = predictor
        self.cache = ensure_cache(cache)

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

    # -- memoized hot queries ----------------------------------------------
    def degradations(self, cpu_uid, gpu_uid, setting):
        return self.cache.get_or_compute(
            ("deg", cpu_uid, gpu_uid, setting),
            lambda: self.inner.degradations(cpu_uid, gpu_uid, setting),
        )

    def degradation(self, uid, kind, partner_uid, setting):
        from repro.hardware.device import DeviceKind

        if kind is DeviceKind.CPU:
            return self.degradations(uid, partner_uid, setting)[0]
        return self.degradations(partner_uid, uid, setting)[1]

    def corun_times(
        self, cpu_uid, gpu_uid, setting
    ) -> tuple[Seconds, Seconds]:
        return self.cache.get_or_compute(
            ("corun", cpu_uid, gpu_uid, setting),
            lambda: self.inner.corun_times(cpu_uid, gpu_uid, setting),
        )

    def pair_power_w(self, cpu_uid, gpu_uid, setting) -> Watts:
        return self.cache.get_or_compute(
            ("power", cpu_uid, gpu_uid, setting),
            lambda: self.inner.pair_power_w(cpu_uid, gpu_uid, setting),
        )

    def feasible_pair_settings(self, cpu_uid, gpu_uid, cap_w: Watts):
        feasible = self.cache.get_or_compute(
            ("feas", cpu_uid, gpu_uid, cap_w),
            lambda: tuple(
                self.inner.feasible_pair_settings(cpu_uid, gpu_uid, cap_w)
            ),
        )
        return list(feasible)

    def feasible_solo_levels(self, uid, kind, cap_w: Watts):
        feasible = self.cache.get_or_compute(
            ("feas_solo", uid, kind, cap_w),
            lambda: tuple(self.inner.feasible_solo_levels(uid, kind, cap_w)),
        )
        return list(feasible)

    def best_solo(self, uid, kind, cap_w: Watts) -> tuple[Hertz, Seconds]:
        return self.cache.get_or_compute(
            ("best_solo", uid, kind, cap_w),
            lambda: self.inner.best_solo(uid, kind, cap_w),
        )

    # -- cheap table lookups, delegated uncached ----------------------------
    def solo_time(self, uid, kind, f_ghz: Hertz) -> Seconds:
        return self.inner.solo_time(uid, kind, f_ghz)

    def solo_power_w(self, uid, kind, f_ghz: Hertz) -> Watts:
        return self.inner.solo_power_w(uid, kind, f_ghz)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CachingPredictor({self.inner!r})"


def schedule_key(
    schedule, objective: str = "makespan", backend: str = "scalar"
) -> tuple:
    """The memoization signature of a co-schedule (uids + placements).

    The leading tags carry the objective and the evaluation backend
    (``"scalar"`` or ``"tensor"``), so scores for different objectives —
    or computed by different backends in one process — can never collide
    in a shared cache.
    """
    return (
        objective,
        backend,
        tuple(j.uid for j in schedule.cpu_queue),
        tuple(j.uid for j in schedule.gpu_queue),
        tuple((j.uid, kind) for j, kind in schedule.solo_tail),
    )


class ScheduleEvaluator:
    """Memoized predicted-score evaluation bound to one (predictor, governor).

    The callable interface makes it a drop-in ``evaluate`` function for the
    search-based schedulers: it returns the predicted score under
    ``objective`` (an :class:`~repro.objective.Objective` or its string
    value; makespan by default).
    Cache keys are tagged with the objective, so one shared
    :class:`~repro.perf.cache.EvalCache` can serve evaluators with
    different objectives without ever leaking a score across them.
    """

    #: Cache-key tag identifying how scores are computed.  Subclasses with a
    #: different evaluation strategy (see
    #: :class:`repro.perf.tensor.BatchScheduleEvaluator`) override it so
    #: their entries never mix with scalar ones in a shared cache.
    backend = "scalar"

    def __init__(
        self,
        predictor,
        governor,
        cache: EvalCache | None = None,
        objective: Objective | str = Objective.MAKESPAN,
    ):
        self.predictor = predictor
        self.governor = governor
        self.cache = ensure_cache(cache)
        self.objective = Objective.coerce(objective)
        # The cache-key tag, read once: ``Enum.value`` is a property.
        self._tag = self.objective.value

    def _key(self, schedule) -> tuple:
        return schedule_key(schedule, self._tag, self.backend)

    def _metrics_key(self, schedule) -> tuple:
        # Metrics are computed under this evaluator's governor, whose
        # frequency choices are objective-specific — the tag keeps a
        # shared cache from serving one objective's metrics to another.
        return schedule_key(
            schedule, f"metrics:{self._tag}", self.backend
        )

    def _replayed(self, schedule, *, track_energy: bool):
        """``(makespan, energy, flow)`` of the schedule's referee replay
        (:func:`repro.core.schedule._replay`); :data:`INFEASIBLE` when it
        meets a combination no setting fits under the cap, which the
        governor reports by raising."""
        # Imported lazily: repro.core modules import this module at load
        # time, so a top-level core import here would be circular.
        from repro.core.schedule import _replay

        try:
            return _replay(
                schedule, self.predictor, self.governor, track_energy=track_energy
            )
        except InfeasibleCapError:
            return INFEASIBLE

    def _compute(self, schedule) -> float:
        if self.objective is Objective.MAKESPAN:
            return self._replayed(schedule, track_energy=False)[0]
        return self.metrics(schedule).score(self.objective)

    def __call__(self, schedule) -> float:
        return self.cache.get_or_compute(
            self._key(schedule), lambda: self._compute(schedule)
        )

    #: alias for readability at call sites (the historical name; it returns
    #: the objective score, which is the makespan for the default objective)
    makespan = __call__

    def metrics(self, schedule):
        """Memoized :class:`~repro.core.schedule.PredictedMetrics`; all
        ``inf`` for an infeasible schedule."""
        from repro.core.schedule import PredictedMetrics

        return self.cache.get_or_compute(
            self._metrics_key(schedule),
            lambda: PredictedMetrics(*self._replayed(schedule, track_energy=True)),
        )

    def makespan_of(self, schedule) -> Seconds:
        """The predicted makespan regardless of this evaluator's objective."""
        if self.objective is Objective.MAKESPAN:
            return self(schedule)
        return self.metrics(schedule).makespan_s

    def contains(self, schedule) -> bool:
        return self._key(schedule) in self.cache

    def prime(self, schedule, value: float) -> None:
        self.cache.prime(self._key(schedule), value)

    def evaluate_all(self, schedules: Sequence) -> list[float]:
        """Scores of many schedules, in input order.

        Each distinct uncached schedule is computed once and counts as one
        cache miss; repeats and cached schedules count as hits.
        """
        from repro.core.schedule import PredictedMetrics

        todo = self._uncached(schedules)
        for s, replayed in zip(todo, self._replay_all(todo)):
            if self.objective is Objective.MAKESPAN:
                self.prime(s, replayed[0])
            else:
                m = PredictedMetrics(*replayed)
                self.cache.prime(self._metrics_key(s), m)
                self.prime(s, m.score(self.objective))
        # Primed scores are read back through __call__, which counts a hit;
        # they are evaluations, so move them to the miss column.
        self.cache.stats.misses += len(todo)
        self.cache.stats.hits -= len(todo)
        return [self(s) for s in schedules]

    def _uncached(self, schedules: Sequence) -> list:
        """The distinct schedules not yet cached, in first-seen order."""
        pending: dict[tuple, object] = {}
        for s in schedules:
            key = self._key(s)
            if key not in self.cache and key not in pending:
                pending[key] = s
        return list(pending.values())

    def _replay_all(self, todo: Sequence) -> list[tuple[float, float, float]]:
        """``(makespan, energy, flow)`` of each schedule of ``todo``."""
        track = self.objective is not Objective.MAKESPAN
        return [self._replayed(s, track_energy=track) for s in todo]

    def snapshot(self) -> dict[str, float]:
        return self.cache.snapshot()
