"""Event-rate benchmark for the ``repro.engine.sim`` discrete-event core.

Drives a trace of several hundred many-phase jobs through ``engine.run()``
with periodic policy-driven preemptions and migrations — the workload
shape the event core was built for — and records the sustained event rate
in ``BENCH_results.json`` (entry ``sim_core_trace``), together with the
microseconds per event and the number of phase-timing builds the run made
(``SimCore`` times each profile once per device and frequency per run).
CI gates on it via ``tools/check_bench.py --require-sim`` (the
``make bench-sim`` target): the trace must process >= 100k events and
sustain the minimum event rate, and the execution invariant verifier must
come back clean on the preempted/migrated timeline.
"""

from __future__ import annotations

import time

import repro.engine.sim as sim_module
from repro.analysis.invariants import verify_execution
from repro.engine.sim import EventKind, PenaltyModel, Scenario, run
from repro.hardware.calibration import make_ivy_bridge
from repro.hardware.device import DeviceKind
from repro.hardware.frequency import FrequencySetting
from repro.workload.phases import Phase
from repro.workload.program import Job, ProgramProfile

ENTRY = "sim_core_trace"
MIN_EVENTS = 100_000

N_JOBS = 256
N_PHASES = 400


def _many_phase_program(name: str, compute_s: float) -> ProgramProfile:
    """A synthetic program alternating memory-heavy and compute-heavy phases."""
    phases = tuple(
        Phase(weight=1.0, intensity=1.6 if k % 2 else 0.4)
        for k in range(N_PHASES)
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


def _trace_jobs() -> list[Job]:
    return [
        Job(
            uid=f"trace{i:04d}",
            profile=_many_phase_program(f"p{i % 16}", 2.0 + (i % 7) * 0.5),
        )
        for i in range(N_JOBS)
    ]


class _PreemptingFifo:
    """FIFO placement that preempts or migrates at regular completion counts."""

    def __init__(self):
        self.completions = 0
        self.preempts = 0
        self.migrations = 0

    def __call__(self, kind, pending, other, now):
        return pending[0] if pending else None

    def on_event(self, sim, event):
        if event.kind is not EventKind.COMPLETION:
            return
        self.completions += 1
        if self.completions % 16 == 0 and len(sim.running) == 1:
            (kind,) = sim.running
            sim.migrate(kind)
            self.migrations += 1
        elif self.completions % 8 == 0 and DeviceKind.CPU in sim.running:
            sim.preempt(DeviceKind.CPU)
            self.preempts += 1


def test_trace_event_rate(bench_record, monkeypatch):
    processor = make_ivy_bridge()
    setting = FrequencySetting(
        cpu_ghz=processor.cpu.domain.fmax, gpu_ghz=processor.gpu.domain.fmax
    )

    def governor(cpu_job, gpu_job):
        return setting

    policy = _PreemptingFifo()
    scenario = Scenario.from_arrivals(
        [(job, 0.5 * i) for i, job in enumerate(_trace_jobs())],
        penalties=PenaltyModel(
            checkpoint_s=0.05,
            restart_s=0.05,
            migrate_s=0.1,
            warmup_s=0.2,
            warmup_factor=1.2,
        ),
    )
    builds = []
    real_phase_timings = sim_module.phase_timings

    def counting(profile, device, f_ghz):
        builds.append(profile.name)
        return real_phase_timings(profile, device, f_ghz)

    monkeypatch.setattr(sim_module, "phase_timings", counting)
    t0 = time.perf_counter()
    result = run(processor, scenario, policy=policy, governor=governor)
    wall_s = time.perf_counter() - t0

    assert len(result.completions) == N_JOBS
    assert result.events_processed >= MIN_EVENTS
    assert result.preemptions
    assert any(rec.migrated for rec in result.preemptions)
    assert verify_execution(result) == []

    rate = result.events_processed / wall_s
    bench_record(
        ENTRY,
        events=result.events_processed,
        wall_s=wall_s,
        events_per_s=rate,
        us_per_event=1e6 / rate,
        timing_builds=len(builds),
        jobs=N_JOBS,
        preemptions=policy.preempts,
        migrations=policy.migrations,
    )
    print(
        f"\n[{ENTRY}] events={result.events_processed}  wall_s={wall_s:.3f}  "
        f"events_per_s={rate:,.0f}  us_per_event={1e6 / rate:.2f}  "
        f"timing_builds={len(builds)}  preemptions={policy.preempts}  "
        f"migrations={policy.migrations}"
    )
