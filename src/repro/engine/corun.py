"""Ground-truth co-run simulation of one CPU job and one GPU job.

The simulator advances both sides' phase sequences event-by-event.  Within a
segment (between phase boundaries), each side declares its standalone
bandwidth demand for its current phase; the shared memory system converts
the pair of demands into per-side stall factors; each side's phase is
re-timed under its stall (scaled by the program's contention sensitivity)
and progresses linearly until the earlier phase boundary.

This is the reproduction's equivalent of *measuring* a co-run on hardware:
the paper's Section V predictor is evaluated against exactly these numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.device import DeviceKind
from repro.hardware.frequency import FrequencySetting
from repro.hardware.processor import IntegratedProcessor
from repro.workload.program import ProgramProfile
from repro.engine.standalone import PhaseTiming, phase_timings, standalone_run
from repro.engine.tracing import PowerSegment, segments_mean_power_w

#: Progress slop when deciding a phase has finished.
_EPS = 1e-12

#: Hard cap on simulation events — a runaway loop indicates a bug, not work.
_MAX_EVENTS = 200_000


class PhasedRunner:
    """Phase-by-phase progress tracker for one program on one device.

    Tracks which phase the program is in and the completed fraction of that
    phase.  Frequencies may change between segments: progress is stored as
    work fractions, so re-deriving the phase timings at a new frequency
    preserves position.

    ``f_ghz=None`` builds the runner untimed: it keeps its progress but has
    no phase timings until the first :meth:`retime` (or
    :meth:`set_frequency`), so a caller that learns the frequency later
    times it once instead of twice.  ``done`` is a plain attribute, kept
    current at every phase step.
    """

    def __init__(
        self,
        profile: ProgramProfile,
        processor: IntegratedProcessor,
        kind: DeviceKind,
        f_ghz: float | None,
        *,
        loop: bool = False,
    ) -> None:
        self.profile = profile
        self.processor = processor
        self.kind = kind
        self.loop = loop
        self.phase_idx = 0
        self.phase_frac = 0.0
        self.laps = 0
        self.f_ghz = 0.0
        self.phases: tuple[PhaseTiming, ...] = ()
        self._n_phases = len(profile.phases)
        self.done = False
        if f_ghz is not None:
            self.set_frequency(f_ghz)

    def set_frequency(self, f_ghz: float) -> None:
        """Re-time the phase list at a new frequency (progress preserved)."""
        if f_ghz == self.f_ghz:
            return
        self.retime(
            f_ghz,
            phase_timings(self.profile, self.processor.device(self.kind), f_ghz),
        )

    def retime(self, f_ghz: float, phases: tuple[PhaseTiming, ...]) -> None:
        """Adopt ``phases`` — this program's timings at ``f_ghz`` — keeping
        progress (the caller built or memoized them)."""
        self.f_ghz = f_ghz
        self.phases = phases
        self._skip_empty_phases()

    def seek(self, phase_idx: int, phase_frac: float) -> None:
        """Jump to a stored progress point (phase index + completed fraction).

        Used to restore a checkpointed job after preemption or migration:
        progress is device-independent work fractions, so a runner built
        for the *other* device kind can resume the same logical position.
        """
        if phase_idx < 0 or phase_frac < 0.0:
            raise ValueError("seek target must be non-negative")
        self.phase_idx = phase_idx
        self.phase_frac = phase_frac
        self.done = not self.loop and phase_idx >= self._n_phases
        if self.phases:
            self._skip_empty_phases()

    def _skip_empty_phases(self) -> None:
        phases = self.phases
        while not self.done and phases[self.phase_idx].duration_s <= 0.0:
            self._next_phase()

    def _next_phase(self) -> None:
        self.phase_idx += 1
        self.phase_frac = 0.0
        if self.phase_idx >= self._n_phases:
            if self.loop:
                self.phase_idx = 0
                self.laps += 1
            else:
                self.done = True

    @property
    def sensitivity(self) -> float:
        return self.profile.sensitivity[self.kind]

    def current_phase(self) -> PhaseTiming:
        if self.done:
            raise RuntimeError(f"{self.profile.name} already finished")
        return self.phases[self.phase_idx]

    def demand_gbps(self) -> float:
        """Declared (standalone) bandwidth demand of the current phase."""
        return 0.0 if self.done else self.current_phase().demand_gbps

    def contended_duration(self, stall: float) -> float:
        """Full duration of the current phase under ``stall``."""
        return self.current_phase().contended_duration(stall, self.sensitivity)

    def time_to_phase_end(self, stall: float) -> float:
        """Wall time until the current phase completes under ``stall``."""
        return (1.0 - self.phase_frac) * self.contended_duration(stall)

    def compute_fraction(self, stall: float) -> float:
        """Compute-busy fraction of the current phase under ``stall``."""
        dur = self.contended_duration(stall)
        if dur <= 0.0:
            return 0.0
        return min(1.0, self.current_phase().compute_s / dur)

    def achieved_bw(self, stall: float) -> float:
        """Bandwidth actually consumed during the current phase."""
        return self.demand_gbps() / stall

    def advance(self, dt: float, stall: float) -> None:
        """Progress by ``dt`` seconds of wall time under ``stall``."""
        if self.done:
            raise RuntimeError(f"{self.profile.name} already finished")
        self.advance_in(dt, self.contended_duration(stall))

    def advance_in(self, dt: float, dur: float) -> None:
        """Progress by ``dt`` given the phase's contended duration ``dur``.

        Callers that already hold ``contended_duration(stall)`` (e.g. the
        event core's memoized physics) skip recomputing it; the arithmetic
        is identical to :meth:`advance`.
        """
        if self.done:
            raise RuntimeError(f"{self.profile.name} already finished")
        self.phase_frac += dt / dur if dur > 0 else 1.0
        if self.phase_frac >= 1.0 - _EPS:
            self._next_phase()
            self._skip_empty_phases()


@dataclass(frozen=True)
class CoRunResult:
    """Outcome of co-running one CPU job and one GPU job from a joint start."""

    cpu_program: str
    gpu_program: str
    setting: FrequencySetting
    cpu_time_s: float
    gpu_time_s: float
    cpu_standalone_s: float
    gpu_standalone_s: float
    segments: tuple[PowerSegment, ...]

    @property
    def makespan_s(self) -> float:
        return max(self.cpu_time_s, self.gpu_time_s)

    @property
    def cpu_degradation(self) -> float:
        """Fractional slowdown of the CPU job versus its solo run."""
        return self.cpu_time_s / self.cpu_standalone_s - 1.0

    @property
    def gpu_degradation(self) -> float:
        return self.gpu_time_s / self.gpu_standalone_s - 1.0

    @property
    def mean_power_w(self) -> float:
        return segments_mean_power_w(self.segments)


def _pair_stalls(
    processor: IntegratedProcessor,
    cpu_runner: PhasedRunner | None,
    gpu_runner: PhasedRunner | None,
) -> tuple[float, float]:
    cpu_demand = cpu_runner.demand_gbps() if cpu_runner and not cpu_runner.done else 0.0
    gpu_demand = gpu_runner.demand_gbps() if gpu_runner and not gpu_runner.done else 0.0
    return processor.memory.pair_stall_factors(cpu_demand, gpu_demand)


def _segment_power(
    processor: IntegratedProcessor,
    setting: FrequencySetting,
    cpu_runner: PhasedRunner | None,
    gpu_runner: PhasedRunner | None,
    stalls: tuple[float, float],
) -> float:
    power = processor.power
    if cpu_runner is not None and not cpu_runner.done:
        util_c = power.cpu.effective_util(cpu_runner.compute_fraction(stalls[0]))
        bw_c = cpu_runner.achieved_bw(stalls[0])
    else:
        util_c, bw_c = power.cpu.idle_util, 0.0
    if gpu_runner is not None and not gpu_runner.done:
        util_g = power.gpu.effective_util(gpu_runner.compute_fraction(stalls[1]))
        bw_g = gpu_runner.achieved_bw(stalls[1])
    else:
        util_g, bw_g = power.gpu.idle_util, 0.0
    return processor.chip_power(setting, util_c, util_g, bw_c + bw_g)


def corun_pair(
    processor: IntegratedProcessor,
    cpu_profile: ProgramProfile,
    gpu_profile: ProgramProfile,
    setting: FrequencySetting,
) -> CoRunResult:
    """Co-run two programs started together; each runs to completion once.

    After the shorter job finishes, the longer one continues alone (no
    contention), exactly like the finite co-runs of the paper's Section III
    example and Figure 9 power traces.  It is a two-job fixed schedule on
    the event core (:func:`repro.engine.sim.run`) under a governor that
    always answers ``setting``.
    """
    # Deferred: repro.engine.sim imports this module.
    from repro.engine.sim import Scenario, run
    from repro.workload.program import Job

    cpu_job, gpu_job = Job("cpu", cpu_profile), Job("gpu", gpu_profile)
    execution = run(
        processor,
        Scenario.from_queues([cpu_job], [gpu_job]),
        governor=lambda c, g: setting,
    )
    return CoRunResult(
        cpu_program=cpu_profile.name,
        gpu_program=gpu_profile.name,
        setting=setting,
        cpu_time_s=execution.finish_of(cpu_job.uid),
        gpu_time_s=execution.finish_of(gpu_job.uid),
        cpu_standalone_s=standalone_run(cpu_profile, processor.cpu, setting.cpu_ghz).time_s,
        gpu_standalone_s=standalone_run(gpu_profile, processor.gpu, setting.gpu_ghz).time_s,
        segments=execution.segments,
    )


def steady_degradation(
    processor: IntegratedProcessor,
    target: ProgramProfile,
    target_kind: DeviceKind,
    partner: ProgramProfile,
    setting: FrequencySetting,
) -> float:
    """Steady-state fractional degradation of ``target`` next to ``partner``.

    The partner loops its phase sequence for the target's entire execution,
    so the result is the paper's ``d_{i,p,f}^{j,g}``: the degradation job i
    experiences when job j continuously occupies the other processor.
    """
    if target_kind is DeviceKind.CPU:
        tgt_f, par_f = setting.cpu_ghz, setting.gpu_ghz
    else:
        tgt_f, par_f = setting.gpu_ghz, setting.cpu_ghz
    tgt = PhasedRunner(target, processor, target_kind, tgt_f)
    par = PhasedRunner(partner, processor, target_kind.other, par_f, loop=True)

    t = 0.0
    for _ in range(_MAX_EVENTS):
        if tgt.done:
            break
        if target_kind is DeviceKind.CPU:
            stalls = _pair_stalls(processor, tgt, par)
            tgt_stall, par_stall = stalls[0], stalls[1]
        else:
            stalls = _pair_stalls(processor, par, tgt)
            tgt_stall, par_stall = stalls[1], stalls[0]
        dt = min(tgt.time_to_phase_end(tgt_stall), par.time_to_phase_end(par_stall))
        tgt.advance(dt, tgt_stall)
        par.advance(dt, par_stall)
        t += dt
    else:  # pragma: no cover - defensive
        raise RuntimeError("steady-state simulation exceeded the event budget")

    alone = standalone_run(
        target, processor.device(target_kind), tgt_f
    ).time_s
    if alone <= 0.0:
        return 0.0
    return t / alone - 1.0
