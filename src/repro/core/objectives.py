"""Objective-aware frequency governors.

Definition 2.1 minimizes the makespan, but the power-cap setting naturally
raises the energy question (the related work's co-scheduling-for-energy line
[18, 22]).  The objective itself — the :class:`~repro.objective.Objective`
enum and its one scoring formula — lives in :mod:`repro.objective`; this
module builds the governors on top of it:

* :class:`EnergyAwareGovernor` — a drop-in replacement for the HCS
  governor that picks, among cap-feasible frequency settings, the one
  minimizing the *predicted objective cost to complete the running pair*
  (energy, or energy x time for EDP) instead of the predicted completion
  time;
* :func:`governor_for` — the default governor factory used by
  :class:`~repro.core.context.SchedulingContext`.

Low frequencies are disproportionately energy-efficient (dynamic power
falls with ``f * V(f)^2`` while run time grows only with ``1/f``), so the
energy-optimal operating point sits well below the cap — the experiment in
``repro.experiments.energy`` quantifies the throughput/energy trade the
governors span.

All cap-feasibility enumeration goes through :mod:`repro.core.feasibility`;
in particular an infeasible pair raises
:class:`~repro.errors.InfeasibleCapError` (not a bare ``RuntimeError``), so
the CLI's exit-code-2 contract holds for energy runs too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.device import DeviceKind
from repro.hardware.frequency import FrequencySetting
from repro.workload.program import Job
from repro.core.feasibility import (
    require_pair_settings,
    require_solo_levels,
    solo_energy_j,
)
from repro.core.freqpolicy import ModelGovernor, TableServedGovernor
from repro.model.predictor import CoRunPredictor
from repro.objective import Objective
from repro.units import Hertz, Watts


@dataclass
class EnergyAwareGovernor(TableServedGovernor):
    """Cap-feasible frequency choice minimizing a predicted objective cost.

    For a co-running pair the cost is the objective's
    :meth:`~repro.objective.Objective.score` of the pair's predicted span
    and the predicted energy to complete it (chip power times summed co-run
    times — both jobs must finish, and power is roughly constant while they
    overlap).  Solo jobs minimize the analogous standalone quantity.  Infeasible combinations raise
    :class:`~repro.errors.InfeasibleCapError`.
    """

    predictor: CoRunPredictor
    cap_w: Watts
    objective: Objective = Objective.ENERGY
    _cache: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.objective = Objective.coerce(self.objective)
        if self.objective in (Objective.MAKESPAN, Objective.FLOW_TIME):
            raise ValueError(
                "EnergyAwareGovernor optimizes energy-weighted objectives; "
                "use ModelGovernor for makespan/flow_time"
            )

    def _pair_cost(self, cpu_uid: str, gpu_uid: str, s: FrequencySetting) -> float:
        # pair_energy_j's power * (t_c + t_g), from one corun_times query.
        t_c, t_g = self.predictor.corun_times(cpu_uid, gpu_uid, s)
        energy = self.predictor.pair_power_w(cpu_uid, gpu_uid, s) * (t_c + t_g)
        return self.objective.score(max(t_c, t_g), energy)

    def _solo_cost(self, uid: str, kind: DeviceKind, f_ghz: Hertz) -> float:
        energy = solo_energy_j(self.predictor, uid, kind, f_ghz)
        t = self.predictor.solo_time(uid, kind, f_ghz)
        return self.objective.score(t, energy)

    def _choose(self, cpu_job: Job | None, gpu_job: Job | None) -> FrequencySetting:
        proc = self.predictor.processor
        if cpu_job is not None and gpu_job is not None:
            feasible = require_pair_settings(
                self.predictor, cpu_job.uid, gpu_job.uid, self.cap_w
            )
            return min(
                feasible,
                key=lambda s: self._pair_cost(cpu_job.uid, gpu_job.uid, s),
            )
        if cpu_job is not None:
            levels = require_solo_levels(
                self.predictor, cpu_job.uid, DeviceKind.CPU, self.cap_w
            )
            best = min(
                levels,
                key=lambda f: self._solo_cost(cpu_job.uid, DeviceKind.CPU, f),
            )
            return FrequencySetting(best, proc.gpu.domain.fmin)
        if gpu_job is not None:
            levels = require_solo_levels(
                self.predictor, gpu_job.uid, DeviceKind.GPU, self.cap_w
            )
            best = min(
                levels,
                key=lambda f: self._solo_cost(gpu_job.uid, DeviceKind.GPU, f),
            )
            return FrequencySetting(proc.cpu.domain.fmin, best)
        raise ValueError("governor consulted with no running job")

    def _rank_cost(self, cpu_uid: str, gpu_uid: str, s: FrequencySetting) -> float:
        # Step 3 ranks co-runners in the objective's currency, so an energy
        # context pairs jobs that are cheap to run *together*.
        return self._pair_cost(cpu_uid, gpu_uid, s)


def governor_for(
    predictor, cap_w: Watts, objective: Objective | str = Objective.MAKESPAN
):
    """The default governor for an objective.

    Makespan and flow time keep the paper's
    :class:`~repro.core.freqpolicy.ModelGovernor` (best predicted
    performance under the cap — the flow-optimal frequency choice is the
    fastest feasible one, like makespan); energy, EDP, and makespan+energy
    swap in the :class:`EnergyAwareGovernor` parameterized by the
    objective.
    """
    objective = Objective.coerce(objective)
    if objective in (Objective.MAKESPAN, Objective.FLOW_TIME):
        return ModelGovernor(predictor, cap_w)
    return EnergyAwareGovernor(predictor, cap_w, objective)
