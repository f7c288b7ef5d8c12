"""The co-run performance and power predictor (Section V-C).

Given two jobs' *standalone* profiles and the micro-benchmark-characterized
degradation space, the predictor answers, for any frequency setting:

* how much will each co-runner degrade (staged interpolation: look up the
  standalone bandwidth demands at the chosen frequencies, then bilinearly
  interpolate the space at that coordinate pair);
* what will the pair's power be (sum of standalone device powers plus
  shared-uncore power over the combined nominal traffic);
* which frequency settings are feasible under a power cap.

An :class:`OracleDegradations` variant returns measured (simulated ground
truth) degradations with the same interface — used to separate algorithm
quality from model quality in ablations, and by the brute-force optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InfeasibleCapError
from repro.hardware.device import DeviceKind
from repro.hardware.frequency import FrequencySetting
from repro.hardware.processor import IntegratedProcessor
from repro.engine.corun import steady_degradation
from repro.model.profiler import ProfileTable
from repro.model.space import DegradationSpace
from repro.units import Hertz, Seconds, Watts


@dataclass(frozen=True)
class CoRunPredictor:
    """Interpolation-based co-run performance and power model."""

    processor: IntegratedProcessor
    table: ProfileTable
    space: DegradationSpace

    # ------------------------------------------------------------------
    # Performance
    # ------------------------------------------------------------------
    def degradations(
        self, cpu_uid: str, gpu_uid: str, setting: FrequencySetting
    ) -> tuple[float, float]:
        """Predicted fractional degradations (CPU job, GPU job)."""
        bw_c = self.table.demand_gbps(cpu_uid, DeviceKind.CPU, setting.cpu_ghz)
        bw_g = self.table.demand_gbps(gpu_uid, DeviceKind.GPU, setting.gpu_ghz)
        return (
            self.space.predict_cpu_degradation(bw_c, bw_g, setting),
            self.space.predict_gpu_degradation(bw_c, bw_g, setting),
        )

    def degradation(
        self,
        uid: str,
        kind: DeviceKind,
        partner_uid: str,
        setting: FrequencySetting,
    ) -> float:
        """Predicted degradation ``d_{i,p,f}^{j,g}`` of one side."""
        if kind is DeviceKind.CPU:
            return self.degradations(uid, partner_uid, setting)[0]
        return self.degradations(partner_uid, uid, setting)[1]

    def corun_times(
        self, cpu_uid: str, gpu_uid: str, setting: FrequencySetting
    ) -> tuple[Seconds, Seconds]:
        """Predicted steady co-run times ``l * (1 + d)`` for both jobs."""
        d_c, d_g = self.degradations(cpu_uid, gpu_uid, setting)
        t_c = self.table.time_s(cpu_uid, DeviceKind.CPU, setting.cpu_ghz)
        t_g = self.table.time_s(gpu_uid, DeviceKind.GPU, setting.gpu_ghz)
        return t_c * (1.0 + d_c), t_g * (1.0 + d_g)

    def solo_time(self, uid: str, kind: DeviceKind, f_ghz: Hertz) -> Seconds:
        """Profiled standalone time ``l_{i,p,f}``."""
        return self.table.time_s(uid, kind, f_ghz)

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------
    def pair_power_w(
        self, cpu_uid: str, gpu_uid: str, setting: FrequencySetting
    ) -> Watts:
        """Predicted co-run chip power: standalone device powers summed.

        This is the paper's Section VI-B power model: "using the power of
        standalone runs at the same frequency to predict the power usage of
        the co-runs".  Shared-uncore power is counted once, over the
        combined nominal traffic.
        """
        own_c = self.table.own_power_w(cpu_uid, DeviceKind.CPU, setting.cpu_ghz)
        own_g = self.table.own_power_w(gpu_uid, DeviceKind.GPU, setting.gpu_ghz)
        bw_c = self.table.demand_gbps(cpu_uid, DeviceKind.CPU, setting.cpu_ghz)
        bw_g = self.table.demand_gbps(gpu_uid, DeviceKind.GPU, setting.gpu_ghz)
        return own_c + own_g + self.processor.power.uncore.power(bw_c + bw_g)

    def solo_power_w(self, uid: str, kind: DeviceKind, f_ghz: Hertz) -> Watts:
        """Predicted chip power of a standalone run (profiled)."""
        return self.table.chip_power_w(uid, kind, f_ghz)

    # ------------------------------------------------------------------
    # Power-cap feasibility
    # ------------------------------------------------------------------
    def feasible_pair_settings(
        self, cpu_uid: str, gpu_uid: str, cap_w: Watts
    ) -> list[FrequencySetting]:
        """All frequency settings whose predicted pair power fits the cap."""
        return [
            s
            for s in self.processor.settings()
            if self.pair_power_w(cpu_uid, gpu_uid, s) <= cap_w
        ]

    def feasible_solo_levels(
        self, uid: str, kind: DeviceKind, cap_w: Watts
    ) -> list[Hertz]:
        """Frequency levels at which the job may run alone under the cap."""
        domain = self.processor.device(kind).domain
        return [
            f for f in domain.levels if self.solo_power_w(uid, kind, f) <= cap_w
        ]

    def best_solo(
        self, uid: str, kind: DeviceKind, cap_w: Watts
    ) -> tuple[Hertz, Seconds]:
        """(frequency, time) of the fastest cap-feasible standalone run.

        Raises :class:`~repro.errors.InfeasibleCapError` when even the
        lowest level exceeds the cap — the job cannot legally run on that
        device.
        """
        feasible = self.feasible_solo_levels(uid, kind, cap_w)
        if not feasible:
            raise InfeasibleCapError(
                f"{uid} cannot run on {kind} under a {cap_w} W cap at any level",
                cap_w=cap_w,
                jobs=(uid,),
            )
        best_f = min(feasible, key=lambda f: self.table.time_s(uid, kind, f))
        return best_f, self.table.time_s(uid, kind, best_f)


@dataclass
class OracleDegradations:
    """Ground-truth degradations with the predictor's interface.

    Wraps the simulator's steady-state pairwise measurement with caching.
    Using it in place of the interpolation model isolates how much schedule
    quality the approximate model costs (an ablation the paper motivates by
    reporting model error separately from scheduling gains).
    """

    processor: IntegratedProcessor
    table: ProfileTable
    _cache: dict = field(default_factory=dict)

    def degradations(
        self, cpu_uid: str, gpu_uid: str, setting: FrequencySetting
    ) -> tuple[float, float]:
        key = (cpu_uid, gpu_uid, setting)
        if key not in self._cache:
            cpu_prof = self.table.job(cpu_uid).profile
            gpu_prof = self.table.job(gpu_uid).profile
            d_c = steady_degradation(
                self.processor, cpu_prof, DeviceKind.CPU, gpu_prof, setting
            )
            d_g = steady_degradation(
                self.processor, gpu_prof, DeviceKind.GPU, cpu_prof, setting
            )
            self._cache[key] = (d_c, d_g)
        return self._cache[key]

    def degradation(
        self,
        uid: str,
        kind: DeviceKind,
        partner_uid: str,
        setting: FrequencySetting,
    ) -> float:
        if kind is DeviceKind.CPU:
            return self.degradations(uid, partner_uid, setting)[0]
        return self.degradations(partner_uid, uid, setting)[1]

    def corun_times(
        self, cpu_uid: str, gpu_uid: str, setting: FrequencySetting
    ) -> tuple[Seconds, Seconds]:
        d_c, d_g = self.degradations(cpu_uid, gpu_uid, setting)
        t_c = self.table.time_s(cpu_uid, DeviceKind.CPU, setting.cpu_ghz)
        t_g = self.table.time_s(gpu_uid, DeviceKind.GPU, setting.gpu_ghz)
        return t_c * (1.0 + d_c), t_g * (1.0 + d_g)
