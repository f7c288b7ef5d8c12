"""The event core's per-run memos: what they save, and what they must not.

``SimCore`` times each (program, device, frequency) once per run, keys its
segment-physics memo by integer phase and setting tokens, and validates
each distinct frequency setting once.  These tests count the timing builds
(``phase_timings`` calls) and setting validations a run makes, check that
nothing is carried from one run to the next, that a long-lived core keeps
its memos bounded without changing a bit, and that an off-level setting
still raises every time.
"""

from __future__ import annotations

import pytest

import repro.engine.corun as corun_module
import repro.engine.sim as sim_module
from repro.engine.sim import EventKind, PenaltyModel, Scenario, SimCore, run
from repro.engine.standalone import phase_timings
from repro.hardware.device import DeviceKind
from repro.hardware.frequency import FrequencySetting
from repro.hardware.processor import IntegratedProcessor
from repro.workload.phases import Phase
from repro.workload.program import Job, ProgramProfile


def _program(name: str, compute_s: float, n_phases: int = 6) -> ProgramProfile:
    phases = tuple(
        Phase(weight=1.0, intensity=1.5 if k % 2 else 0.5) for k in range(n_phases)
    )
    return ProgramProfile(
        name=name,
        compute_base_s={DeviceKind.CPU: compute_s, DeviceKind.GPU: 0.7 * compute_s},
        bytes_gb=0.5 * compute_s,
        mem_eff={DeviceKind.CPU: 0.6, DeviceKind.GPU: 0.8},
        overlap=0.5,
        sensitivity={DeviceKind.CPU: 1.0, DeviceKind.GPU: 0.9},
        phases=phases,
    )


def fifo(kind, pending, other, now):
    return pending[0] if pending else None


class PreemptingFifo:
    """FIFO that preempts the CPU job at every third completion."""

    def __init__(self) -> None:
        self.completions = 0

    def __call__(self, kind, pending, other, now):
        return pending[0] if pending else None

    def on_event(self, sim, event) -> None:
        if event.kind is EventKind.COMPLETION:
            self.completions += 1
            if self.completions % 3 == 0 and DeviceKind.CPU in sim.running:
                sim.preempt(DeviceKind.CPU)


@pytest.fixture
def builds(monkeypatch):
    """Every ``phase_timings`` call the engine makes, as
    ``(program, device kind, f_ghz)``."""
    calls: list[tuple[str, DeviceKind, float]] = []

    def counting(profile, device, f_ghz):
        calls.append((profile.name, device.kind, f_ghz))
        return phase_timings(profile, device, f_ghz)

    monkeypatch.setattr(corun_module, "phase_timings", counting)
    monkeypatch.setattr(sim_module, "phase_timings", counting, raising=False)
    return calls


def _top(processor):
    setting = FrequencySetting(
        processor.cpu.domain.fmax, processor.gpu.domain.fmax
    )
    return lambda cpu_job, gpu_job: setting


def _medium(processor):
    setting = FrequencySetting(
        processor.cpu.domain.medium, processor.gpu.domain.medium
    )
    return lambda cpu_job, gpu_job: setting


class TestTimingBuilds:
    def test_arrival_run_times_each_program_once_per_device(
        self, processor, builds
    ):
        programs = [_program(f"p{i}", 1.0 + 0.5 * i) for i in range(4)]
        jobs = [Job(f"j{i:02d}", programs[i % 4]) for i in range(24)]
        scenario = Scenario.from_arrivals(
            [(job, 0.25 * i) for i, job in enumerate(jobs)],
            penalties=PenaltyModel(checkpoint_s=0.01, restart_s=0.01),
        )
        result = run(
            processor, scenario, policy=PreemptingFifo(), governor=_top(processor)
        )
        assert len(result.completions) == 24
        assert result.preemptions
        profile_of = {job.uid: job.profile.name for job in jobs}
        ran_on = {(profile_of[iv.job], iv.device) for iv in result.timeline}
        built = [(name, str(kind)) for name, kind, _ in builds]
        assert len(built) == len(set(built))
        assert set(built) <= ran_on

    def test_fixed_run_builds_once_per_job_and_frequency(self, processor, builds):
        jobs = [Job(f"j{i}", _program(f"p{i}", 1.0 + 0.3 * i)) for i in range(8)]
        governor = _medium(processor)
        result = run(
            processor, Scenario.from_queues(jobs[0::2], jobs[1::2]),
            governor=governor,
        )
        assert len(result.completions) == 8
        fmax = {
            DeviceKind.CPU: processor.cpu.domain.fmax,
            DeviceKind.GPU: processor.gpu.domain.fmax,
        }
        assert all(f != fmax[kind] for _, kind, f in builds)
        assert sorted(builds) == sorted(set(builds))
        assert len(builds) == len(jobs)

    def test_back_to_back_runs_build_the_same_count(self, processor, builds):
        programs = [_program(f"p{i}", 1.0 + 0.5 * i) for i in range(3)]
        jobs = [Job(f"j{i}", programs[i % 3]) for i in range(12)]
        scenario = Scenario.from_arrivals([(job, 0.5 * i) for i, job in enumerate(jobs)])
        first = run(processor, scenario, policy=fifo, governor=_top(processor))
        n_first = len(builds)
        second = run(processor, scenario, policy=fifo, governor=_top(processor))
        assert n_first > 0
        assert len(builds) == 2 * n_first
        assert second.segments == first.segments

    def test_each_distinct_setting_is_validated_once(
        self, processor, monkeypatch
    ):
        validated: list[FrequencySetting] = []
        real = IntegratedProcessor.validate_setting

        def counting(self, setting):
            validated.append(setting)
            return real(self, setting)

        monkeypatch.setattr(IntegratedProcessor, "validate_setting", counting)
        cpu_dom, gpu_dom = processor.cpu.domain, processor.gpu.domain

        def fresh(cpu_job, gpu_job):
            # A new object every consult, equal in value to one of two.
            if cpu_job is not None and gpu_job is not None:
                return FrequencySetting(cpu_dom.medium, gpu_dom.medium)
            return FrequencySetting(cpu_dom.fmax, gpu_dom.fmax)

        jobs = [Job(f"j{i}", _program(f"p{i}", 1.0 + 0.2 * i)) for i in range(8)]
        run(processor, Scenario.from_queues(jobs[:5], jobs[5:]), governor=fresh)
        assert sorted(validated) == sorted(set(validated))
        assert len(validated) == 2


class TestBounds:
    def _session_shape(self, processor, profiles):
        """One long-lived core fed one job per profile, advanced in steps."""
        sim = SimCore(processor, _top(processor))
        for i, profile in enumerate(profiles):
            sim.add_arrival(Job(f"s{i:04d}", profile), sim.now)
            sim.advance(fifo, sim.now + 0.3)
        sim.advance(fifo)
        return sim

    def test_long_lived_core_keeps_its_memos_bounded(self, processor, monkeypatch):
        profiles = [_program(f"q{i}", 0.2 + 0.001 * i) for i in range(300)]
        reference = self._session_shape(processor, profiles).record()

        monkeypatch.setattr(sim_module, "_TIMING_MEMO_MAX", 16)
        monkeypatch.setattr(sim_module, "_PHASE_TOKENS_MAX", 64)
        monkeypatch.setattr(sim_module, "_PHYSICS_MEMO_MAX", 32)
        sizes = []
        real_retime = SimCore._retime

        def watching(self, runner, f_ghz):
            tokens = real_retime(self, runner, f_ghz)
            sizes.append(
                (len(self._timings), len(self._phase_tokens), len(self._phys_cache))
            )
            return tokens

        monkeypatch.setattr(SimCore, "_retime", watching)
        sim = self._session_shape(processor, profiles)
        assert len(sim.completions) == len(profiles)
        assert max(t for t, _, _ in sizes) <= 16
        # One profile's phases may land after the check that clears.
        assert max(k for _, k, _ in sizes) <= 64 + 6
        assert len(sim._phys_cache) <= 32
        assert len(sim._timings) <= 16
        # Clearing the memos never changes a bit.
        assert sim.record() == reference


class TestInvalidSettings:
    def test_off_level_setting_raises_after_valid_ones_were_cached(
        self, processor
    ):
        cpu_dom, gpu_dom = processor.cpu.domain, processor.gpu.domain
        off_level = FrequencySetting(
            (cpu_dom.levels[0] + cpu_dom.levels[1]) / 2, gpu_dom.fmax
        )

        def bad(cpu_job, gpu_job):
            return off_level

        jobs = [Job(f"j{i}", _program(f"p{i}", 2.0)) for i in range(4)]
        sim = SimCore(processor, _medium(processor))
        for job in jobs:
            sim.add_arrival(job, 0.0)
        sim.schedule_governor_change(0.5, bad)
        sim.advance(fifo, 0.4)
        assert sim.current_setting is not None
        with pytest.raises(ValueError, match="not a CPU level"):
            sim.advance(fifo)
        # The same object again: still refused, never cached.
        with pytest.raises(ValueError, match="not a CPU level"):
            sim.advance(fifo)
