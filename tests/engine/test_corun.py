"""Tests for the pairwise co-run simulator."""

import pytest

from repro.hardware.device import DeviceKind
from repro.engine.corun import PhasedRunner, corun_pair, steady_degradation
from repro.engine.standalone import standalone_run
from repro.workload.microbench import micro_benchmark
from repro.workload.phases import Phase
from repro.workload.program import ProgramProfile


def _profile(name="p", phases=None, **overrides):
    kwargs = dict(
        name=name,
        compute_base_s={DeviceKind.CPU: 20.0, DeviceKind.GPU: 8.0},
        bytes_gb=60.0,
        mem_eff={DeviceKind.CPU: 0.8, DeviceKind.GPU: 0.9},
        overlap=0.5,
        sensitivity={DeviceKind.CPU: 1.0, DeviceKind.GPU: 1.0},
    )
    if phases is not None:
        kwargs["phases"] = phases
    kwargs.update(overrides)
    return ProgramProfile(**kwargs)


class TestPhasedRunner:
    def test_runs_to_completion_at_standalone_pace(self, processor):
        prof = _profile()
        runner = PhasedRunner(prof, processor, DeviceKind.CPU, 3.6)
        expected = standalone_run(prof, processor.cpu, 3.6).time_s
        t = 0.0
        while not runner.done:
            dt = runner.time_to_phase_end(1.0)
            runner.advance(dt, 1.0)
            t += dt
        assert t == pytest.approx(expected)

    def test_frequency_change_preserves_progress(self, processor):
        prof = _profile(phases=(Phase(0.5, 1.0), Phase(0.5, 1.0)))
        runner = PhasedRunner(prof, processor, DeviceKind.CPU, 3.6)
        # Advance half of the first phase, then drop the frequency.
        dt = 0.5 * runner.time_to_phase_end(1.0)
        runner.advance(dt, 1.0)
        frac_before = runner.phase_frac
        runner.set_frequency(1.2)
        assert runner.phase_idx == 0
        assert runner.phase_frac == pytest.approx(frac_before)

    def test_looping_runner_never_finishes(self, processor):
        runner = PhasedRunner(_profile(), processor, DeviceKind.GPU, 1.25, loop=True)
        for _ in range(10):
            runner.advance(runner.time_to_phase_end(1.0), 1.0)
        assert not runner.done
        assert runner.laps >= 1

    def test_untimed_runner_keeps_progress_until_its_first_retime(self, processor):
        prof = _profile(phases=(Phase(0.5, 1.0), Phase(0.3, 1.0), Phase(0.2, 1.0)))
        timed = PhasedRunner(prof, processor, DeviceKind.GPU, 1.25)
        timed.seek(1, 0.25)
        runner = PhasedRunner(prof, processor, DeviceKind.GPU, None)
        assert runner.phases == () and not runner.done
        runner.seek(1, 0.25)
        runner.set_frequency(1.25)
        assert (runner.phase_idx, runner.phase_frac) == (1, 0.25)
        assert runner.phases == timed.phases
        runner.seek(3, 0.0)
        assert runner.done

    def test_advancing_done_runner_rejected(self, processor):
        runner = PhasedRunner(_profile(), processor, DeviceKind.CPU, 3.6)
        while not runner.done:
            runner.advance(runner.time_to_phase_end(1.0), 1.0)
        with pytest.raises(RuntimeError):
            runner.advance(1.0, 1.0)


class TestCorunPair:
    def test_compute_only_pair_shows_no_degradation(self, processor):
        cpu_prog = _profile("c", bytes_gb=0.0)
        gpu_prog = _profile("g", bytes_gb=0.0)
        res = corun_pair(processor, cpu_prog, gpu_prog, processor.max_setting)
        assert res.cpu_degradation == pytest.approx(0.0, abs=1e-9)
        assert res.gpu_degradation == pytest.approx(0.0, abs=1e-9)

    def test_finish_times_at_least_standalone(self, rodinia, processor):
        res = corun_pair(
            processor, rodinia["dwt2d"], rodinia["streamcluster"],
            processor.max_setting,
        )
        assert res.cpu_time_s >= res.cpu_standalone_s - 1e-9
        assert res.gpu_time_s >= res.gpu_standalone_s - 1e-9

    def test_power_segments_cover_the_makespan(self, rodinia, processor):
        res = corun_pair(
            processor, rodinia["cfd"], rodinia["srad"], processor.max_setting
        )
        total = sum(s.duration_s for s in res.segments)
        assert total == pytest.approx(res.makespan_s)

    def test_mean_power_positive_and_below_tdp(self, rodinia, processor):
        res = corun_pair(
            processor, rodinia["lud"], rodinia["heartwall"],
            processor.max_setting,
        )
        assert 5.0 < res.mean_power_w < 40.0

    def test_section3_pairing_example(self, rodinia, processor):
        """dwt2d suffers far more next to streamcluster than next to hotspot."""
        hard = corun_pair(
            processor, rodinia["dwt2d"], rodinia["streamcluster"],
            processor.max_setting,
        )
        easy = corun_pair(
            processor, rodinia["dwt2d"], rodinia["hotspot"],
            processor.max_setting,
        )
        assert hard.cpu_degradation > 2 * easy.cpu_degradation


class TestSteadyDegradation:
    def test_nonnegative(self, rodinia, processor):
        d = steady_degradation(
            processor, rodinia["lud"], DeviceKind.GPU, rodinia["cfd"],
            processor.max_setting,
        )
        assert d >= 0.0

    def test_zero_against_idle_like_partner(self, processor):
        quiet = _profile("quiet", bytes_gb=0.0)
        target = _profile("t")
        d = steady_degradation(
            processor, target, DeviceKind.CPU, quiet, processor.max_setting
        )
        assert d == pytest.approx(0.0, abs=1e-9)

    def test_matches_micro_pair_arithmetic(self, processor):
        """For single-phase micro kernels the steady simulation must agree
        with the closed-form stall computation."""
        cpu_micro = micro_benchmark(8.0, processor.cpu, processor.gpu)
        gpu_micro = micro_benchmark(6.0, processor.cpu, processor.gpu)
        d = steady_degradation(
            processor, cpu_micro, DeviceKind.CPU, gpu_micro,
            processor.max_setting,
        )
        stall_cpu, _ = processor.memory.pair_stall_factors(8.0, 6.0)
        run = standalone_run(cpu_micro, processor.cpu, 3.6)
        phase = run.phases[0]
        expected = (
            phase.contended_duration(stall_cpu, 1.0) / phase.duration_s - 1.0
        )
        assert d == pytest.approx(expected, rel=1e-6)

    def test_steady_exceeds_finite_pair_degradation(self, rodinia, processor):
        """A looping partner interferes for the whole run, a finite one only
        until it finishes — steady degradation must be at least as large."""
        steady = steady_degradation(
            processor, rodinia["hotspot"], DeviceKind.CPU,
            rodinia["streamcluster"], processor.max_setting,
        )
        finite = corun_pair(
            processor, rodinia["hotspot"], rodinia["streamcluster"],
            processor.max_setting,
        ).cpu_degradation
        assert steady >= finite - 1e-6
