"""Power-cap frequency policies (governors).

A governor answers: *given the jobs currently running, what frequency pair
should the chip use?*  Three policies appear in the paper:

* **GPU-biased** (Section VI-A): keep the GPU as fast as the cap allows,
  sacrificing CPU frequency first — the default used with the Random and
  Default baselines.
* **CPU-biased**: the mirror image.
* **HCS's model-driven choice** (Section IV-A.2): traverse every cap-
  feasible setting and pick the best-performing one for the running pair.

All three consult only the *predicted* power model — exactly the paper's
setup, where the runtime cannot measure a co-run before launching it.  The
small prediction error is why measured power occasionally overshoots the cap
(Figure 9).  Cap-feasibility arithmetic lives in
:mod:`repro.core.feasibility`, shared with the energy-aware governor.
A model-driven governor a scheduling context builds over the tensor model
reads its choices from the attached
:class:`~repro.perf.tensor.PairTables` (:class:`TableServedGovernor`),
with the scalar search as the fallback.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.hardware.device import DeviceKind
from repro.hardware.frequency import FrequencySetting
from repro.workload.program import Job
from repro.core.feasibility import (
    first_setting_under_cap,
    pair_settings_under_cap,
    require_pair_settings,
)
from repro.model.predictor import CoRunPredictor


class Bias(enum.Enum):
    """Which device keeps its frequency under power pressure."""

    GPU = "gpu"
    CPU = "cpu"


@dataclass
class BiasedGovernor:
    """GPU-biased or CPU-biased cap enforcement.

    Maximizes the favoured device's frequency, then the other's, subject to
    the predicted power staying at or below the cap.  Equivalent to the
    paper's iterative lower/raise description, but solved directly.

    Raises :class:`~repro.errors.InfeasibleCapError` when even the lowest
    levels exceed the cap; the default calibration's caps (15/16 W) always
    admit the floor setting.
    """

    predictor: CoRunPredictor
    cap_w: float
    bias: Bias = Bias.GPU
    _cache: dict = field(default_factory=dict)

    def __call__(self, cpu_job: Job | None, gpu_job: Job | None) -> FrequencySetting:
        key = (
            cpu_job.uid if cpu_job else None,
            gpu_job.uid if gpu_job else None,
        )
        if key in self._cache:
            return self._cache[key]
        proc = self.predictor.processor
        cpu_levels = list(proc.cpu.domain.levels)
        gpu_levels = list(proc.gpu.domain.levels)

        if self.bias is Bias.GPU:
            outer = [FrequencySetting(fc, fg) for fg in reversed(gpu_levels)
                     for fc in reversed(cpu_levels)]
        else:
            outer = [FrequencySetting(fc, fg) for fc in reversed(cpu_levels)
                     for fg in reversed(gpu_levels)]
        setting = first_setting_under_cap(
            self.predictor, key[0], key[1], self.cap_w, outer
        )
        self._cache[key] = setting
        return setting


class TableServedGovernor:
    """Cache and table front shared by the two stock model-driven governors.

    A miss in the per-combination ``_cache`` reads the choice from the
    :class:`~repro.perf.tensor.PairTables` attached as :attr:`served`, and
    otherwise runs the scalar ``_choose``.  The scalar path also stays for
    uids the model does not cover, for infeasible combinations (so they
    raise its exact :class:`~repro.errors.InfeasibleCapError`) and for
    subclasses, which :meth:`PairTables.attach
    <repro.perf.tensor.PairTables.attach>` declines.  Subclasses provide
    ``_choose`` and ``_rank_cost``.
    """

    predictor: CoRunPredictor
    cap_w: float
    _cache: dict
    #: ``(tables, tensor)``: this governor's tables and the indexed model
    #: view they reduce, set by :meth:`PairTables.attach
    #: <repro.perf.tensor.PairTables.attach>`; ``None`` = scalar only.
    served: tuple | None = None

    def _choose(self, cpu_job: Job | None, gpu_job: Job | None) -> FrequencySetting:
        raise NotImplementedError

    def _rank_cost(self, cpu_uid: str, gpu_uid: str, s: FrequencySetting) -> float:
        raise NotImplementedError

    def __call__(self, cpu_job: Job | None, gpu_job: Job | None) -> FrequencySetting:
        key = (
            cpu_job.uid if cpu_job else None,
            gpu_job.uid if gpu_job else None,
        )
        if key in self._cache:
            return self._cache[key]
        setting = self._table_choice(*key)
        if setting is None:
            setting = self._choose(cpu_job, gpu_job)
        self._cache[key] = setting
        return setting

    def _table_choice(
        self, cpu_uid: str | None, gpu_uid: str | None
    ) -> FrequencySetting | None:
        """The choice read from the tables, or ``None`` for the scalar path."""
        if self.served is None:
            return None
        tables, index = self.served[0], self.served[1].index
        if cpu_uid is not None and gpu_uid is not None:
            i, j = index.get(cpu_uid), index.get(gpu_uid)
            if i is None or j is None or not tables.pair_valid[i, j]:
                return None
            return tables.settings[tables.pair_sidx[i, j]]
        kind = DeviceKind.CPU if cpu_uid is not None else DeviceKind.GPU
        i = index.get(cpu_uid if cpu_uid is not None else gpu_uid)
        if i is None or not tables.solo_valid[kind][i]:
            return None
        f = tables.levels[kind][tables.solo_idx[kind][i]]
        proc = self.predictor.processor
        if kind is DeviceKind.CPU:
            return FrequencySetting(f, proc.gpu.domain.fmin)
        return FrequencySetting(proc.cpu.domain.fmin, f)

    def min_pair_interference(
        self, cpu_uid: str, gpu_uid: str
    ) -> tuple[float, FrequencySetting] | None:
        """Minimal ranking cost ``_rank_cost`` over cap-feasible settings.

        This is the ranking quantity of the heuristic's Step 3 ("traverses
        all frequency settings allowed by the power cap to compute the
        minimal degradation").  Returns ``(cost, setting)``, or ``None``
        when no setting fits the cap.
        """
        if self.served is not None:
            tables, index = self.served[0], self.served[1].index
            i, j = index.get(cpu_uid), index.get(gpu_uid)
            if i is not None and j is not None:
                if not tables.pair_valid[i, j]:
                    return None
                value, sidx = tables.interference
                return float(value[i, j]), tables.settings[sidx[i, j]]
        feasible = pair_settings_under_cap(
            self.predictor, cpu_uid, gpu_uid, self.cap_w
        )
        if not feasible:
            return None
        best_s = min(
            feasible, key=lambda s: self._rank_cost(cpu_uid, gpu_uid, s)
        )
        return self._rank_cost(cpu_uid, gpu_uid, best_s), best_s


@dataclass
class ModelGovernor(TableServedGovernor):
    """HCS's per-pair frequency choice: best predicted performance under the cap.

    For a co-running pair, picks the cap-feasible setting minimizing the
    *sum* of the two predicted co-run times — the pair's aggregate
    throughput.  (Minimizing the pair makespan instead is a trap: when one
    side dominates, every frequency of the other side ties on makespan, and
    the tie would be broken arbitrarily — possibly parking the faster
    device at its floor.)  For a solo job, the cap-feasible level minimizing
    its standalone time, with the idle device parked at its lowest level.
    Step 3 ranks co-runners by the pair's summed degradations.
    """

    predictor: CoRunPredictor
    cap_w: float
    _cache: dict = field(default_factory=dict)

    def _choose(self, cpu_job: Job | None, gpu_job: Job | None) -> FrequencySetting:
        proc = self.predictor.processor
        if cpu_job is not None and gpu_job is not None:
            feasible = require_pair_settings(
                self.predictor, cpu_job.uid, gpu_job.uid, self.cap_w
            )
            return min(
                feasible,
                key=lambda s: sum(
                    self.predictor.corun_times(cpu_job.uid, gpu_job.uid, s)
                ),
            )
        if cpu_job is not None:
            f, _ = self.predictor.best_solo(cpu_job.uid, DeviceKind.CPU, self.cap_w)
            return FrequencySetting(f, proc.gpu.domain.fmin)
        if gpu_job is not None:
            f, _ = self.predictor.best_solo(gpu_job.uid, DeviceKind.GPU, self.cap_w)
            return FrequencySetting(proc.cpu.domain.fmin, f)
        raise ValueError("governor consulted with no running job")

    def _rank_cost(self, cpu_uid: str, gpu_uid: str, s: FrequencySetting) -> float:
        return sum(self.predictor.degradations(cpu_uid, gpu_uid, s))
