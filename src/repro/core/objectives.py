"""Pluggable scheduling objectives: makespan, energy, energy-delay product.

Definition 2.1 minimizes the makespan, but the power-cap setting naturally
raises the energy question (the related work's co-scheduling-for-energy line
[18, 22]).  This module makes the objective a first-class axis:

* :class:`Objective` — the enum every layer shares, with string coercion
  (``"makespan"`` / ``"energy"`` / ``"edp"``) so wire protocols and CLI
  flags round-trip losslessly;
* objective evaluators over measured executions and predicted metrics
  (lower is always better);
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

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.hardware.device import DeviceKind
from repro.hardware.frequency import FrequencySetting
from repro.workload.program import Job
from repro.core.feasibility import (
    pair_energy_j,
    require_pair_settings,
    require_solo_levels,
    solo_energy_j,
)
from repro.core.freqpolicy import ModelGovernor, TableServedGovernor
from repro.model.predictor import CoRunPredictor
from repro.units import Hertz, Joules, Seconds, SecondsPerJoule, Watts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.sim import ExecutionResult


#: Weight (seconds per joule) of the energy term in the MAKESPAN_ENERGY
#: bicriteria objective: ``score = makespan_s + RHO * energy_j``.  One is
#: the natural scale on this platform — a 15 W cap makes a joule cost about
#: as much slack as a fifteenth of a second of span — and keeping it a
#: module constant keeps every layer's fingerprints comparable.
MAKESPAN_ENERGY_RHO: SecondsPerJoule = 1.0


class Objective(enum.Enum):
    """What a schedule is scored on (lower is better)."""

    MAKESPAN = "makespan"
    ENERGY = "energy"
    EDP = "edp"
    #: Sum of job completion times (total flow with release dates at zero),
    #: the classic speed-scaling bicriteria baseline.
    FLOW_TIME = "flow_time"
    #: Linear makespan + energy combination (``makespan_s + RHO * energy_j``
    #: with :data:`MAKESPAN_ENERGY_RHO`), the other bicriteria baseline.
    MAKESPAN_ENERGY = "makespan_energy"

    @classmethod
    def coerce(cls, value: "Objective | str") -> "Objective":
        """Accept an :class:`Objective` or its string value."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value.lower())
            except ValueError:
                known = ", ".join(o.value for o in cls)
                raise ValueError(
                    f"unknown objective {value!r}; known: {known}"
                ) from None
        raise TypeError(
            f"objective must be an Objective or str, got {type(value).__name__}"
        )

    def score(
        self,
        makespan_s: Seconds,
        energy_j: Joules,
        flow_s: Seconds | None = None,
    ) -> float:
        """Combine the base metrics into this objective's scalar."""
        if self is Objective.MAKESPAN:
            return makespan_s
        if self is Objective.ENERGY:
            return energy_j
        if self is Objective.EDP:
            return energy_j * makespan_s
        if self is Objective.MAKESPAN_ENERGY:
            return makespan_s + MAKESPAN_ENERGY_RHO * energy_j
        if flow_s is None:
            raise ValueError(
                "the flow_time objective needs per-job completion times; "
                "this metric source does not track them"
            )
        return flow_s


def score_execution(
    execution: "ExecutionResult", objective: Objective | str
) -> float:
    """Score a measured execution under an objective (lower is better)."""
    objective = Objective.coerce(objective)
    flow = None
    if objective is Objective.FLOW_TIME:
        arrivals = getattr(execution, "arrivals", {})
        flow = sum(
            c.finish_s - arrivals.get(c.job, 0.0)
            for c in execution.completions
        )
    return objective.score(execution.makespan_s, execution.energy_j, flow)


@dataclass
class EnergyAwareGovernor(TableServedGovernor):
    """Cap-feasible frequency choice minimizing a predicted objective cost.

    For a co-running pair the cost is the predicted energy to complete the
    pair (chip power times summed co-run times — both jobs must finish, and
    power is roughly constant while they overlap), optionally multiplied by
    the pair's predicted span for the EDP objective.  Solo jobs minimize
    the analogous standalone quantity.  Infeasible combinations raise
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

    def _pair_energy(self, cpu_uid: str, gpu_uid: str, s: FrequencySetting) -> Joules:
        return pair_energy_j(self.predictor, cpu_uid, gpu_uid, s)

    def _pair_cost(self, cpu_uid: str, gpu_uid: str, s: FrequencySetting) -> float:
        energy = self._pair_energy(cpu_uid, gpu_uid, s)
        if self.objective is Objective.ENERGY:
            return energy
        t_c, t_g = self.predictor.corun_times(cpu_uid, gpu_uid, s)
        if self.objective is Objective.MAKESPAN_ENERGY:
            return max(t_c, t_g) + MAKESPAN_ENERGY_RHO * energy
        return energy * max(t_c, t_g)

    def _solo_cost(self, uid: str, kind: DeviceKind, f_ghz: Hertz) -> float:
        energy = solo_energy_j(self.predictor, uid, kind, f_ghz)
        if self.objective is Objective.ENERGY:
            return energy
        t = self.predictor.solo_time(uid, kind, f_ghz)
        if self.objective is Objective.MAKESPAN_ENERGY:
            return t + MAKESPAN_ENERGY_RHO * energy
        return energy * t

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
