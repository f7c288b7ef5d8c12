"""Regenerate the event-core golden fixture: SimCore runs, pinned bit for bit.

Drives a small version of the ``sim-trace`` benchmark bundle through every
execution loop the engine has:

* an arrival trace of 24 jobs x 40 phases on 8 programs, under a FIFO
  policy that preempts and migrates at fixed completion counts, with a
  non-zero :class:`~repro.engine.sim.PenaltyModel` — once at the top
  setting and once under a governor that answers a lower setting while
  both devices are busy (so running jobs are re-timed mid-phase);
* a fixed replay of two queues under a power-cap trace (12 -> 20 -> 15 W
  governor swaps), plus the same replay without the trace;
* a ``Scenario.timeshare`` run of the Default baseline;
* ``execute_with_reactive_cap`` at 12, 15 and 20 W.

Each run pins its makespan, ``events_processed``, every completion, every
power segment's ``(duration_s, watts)`` and every preemption record.
Floats are stored as JSON numbers, whose ``repr`` round-trips exactly, so
the test compares bits; the test also re-renders the whole file and
compares it byte for byte.

Run from the repo root to rewrite the fixture next to this file::

    PYTHONPATH=src python tests/engine/make_golden_sim.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.baselines import default_partition
from repro.core.context import SchedulingContext
from repro.engine.feedback import execute_with_reactive_cap
from repro.engine.sim import EventKind, PenaltyModel, Scenario, run
from repro.hardware.calibration import make_ivy_bridge
from repro.hardware.device import DeviceKind
from repro.hardware.frequency import FrequencySetting
from repro.model.characterize import characterize_space
from repro.model.predictor import CoRunPredictor
from repro.model.profiler import profile_workload
from repro.util.rng import default_rng
from repro.workload.generator import random_workload
from repro.workload.phases import Phase
from repro.workload.program import Job, ProgramProfile

FIXTURE = Path(__file__).with_name("golden_sim.json")

N_PROGRAMS = 8
N_TRACE_JOBS = 24
N_PHASES = 40
PENALTIES = PenaltyModel(
    checkpoint_s=0.05, restart_s=0.05, migrate_s=0.1, warmup_s=0.2, warmup_factor=1.2
)
REACTIVE_CAPS_W = (12.0, 15.0, 20.0)
#: The fixed replay's cap trace cycles through these, starting at 15 W.
TRACE_CAPS_W = (12.0, 20.0, 15.0)
BASE_CAP_W = 15.0


class PreemptingFifo:
    """FIFO placement that preempts or migrates at fixed completion counts."""

    def __init__(self) -> None:
        self.completions = 0

    def __call__(self, kind, pending, other, now):
        return pending[0] if pending else None

    def on_event(self, sim, event) -> None:
        if event.kind is not EventKind.COMPLETION:
            return
        self.completions += 1
        if self.completions % 8 == 0 and len(sim.running) == 1:
            (kind,) = sim.running
            sim.migrate(kind)
        elif self.completions % 3 == 0 and DeviceKind.CPU in sim.running:
            sim.preempt(DeviceKind.CPU)


def _many_phase_program(name, compute_s, low, high) -> ProgramProfile:
    phases = tuple(
        Phase(weight=1.0, intensity=high if k % 2 else low) for k in range(N_PHASES)
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


def _measured(result) -> dict:
    return {
        "makespan_s": result.makespan_s,
        "events_processed": result.events_processed,
        "completions": [
            [c.job, c.kind, c.start_s, c.finish_s] for c in result.completions
        ],
        "segments": [[s.duration_s, s.watts] for s in result.segments],
        "preemptions": [p.to_dict() for p in result.preemptions],
    }


def drive() -> dict:
    """Execute every pinned run; return the record."""
    processor = make_ivy_bridge()
    rng = default_rng(7)
    programs = [
        _many_phase_program(
            f"p{i}",
            float(rng.uniform(2.0, 5.0)),
            float(rng.uniform(0.3, 0.8)),
            float(rng.uniform(1.2, 1.8)),
        )
        for i in range(N_PROGRAMS)
    ]
    trace_jobs = [
        Job(uid=f"trace{i:02d}", profile=programs[int(rng.integers(N_PROGRAMS))])
        for i in range(N_TRACE_JOBS)
    ]
    trace = Scenario.from_arrivals(
        [(job, 0.5 * i) for i, job in enumerate(trace_jobs)], penalties=PENALTIES
    )
    cpu_dom, gpu_dom = processor.cpu.domain, processor.gpu.domain
    top = FrequencySetting(cpu_dom.fmax, gpu_dom.fmax)
    paired = FrequencySetting(cpu_dom.medium, gpu_dom.medium)

    def top_governor(cpu_job, gpu_job):
        return top

    def paired_governor(cpu_job, gpu_job):
        return paired if cpu_job is not None and gpu_job is not None else top

    record = {}
    for name, governor in (("top", top_governor), ("paired", paired_governor)):
        result = run(processor, trace, policy=PreemptingFifo(), governor=governor)
        record[f"trace/{name}"] = _measured(result)

    jobs = random_workload(8, rng)
    table = profile_workload(processor, jobs)
    predictor = CoRunPredictor(processor, table, characterize_space(processor))
    governors = {
        cap: SchedulingContext.build(jobs, cap_w=cap, predictor=predictor).governor
        for cap in set(TRACE_CAPS_W) | set(REACTIVE_CAPS_W)
    }
    cpu_q, gpu_q = jobs[0::2], jobs[1::2]
    base = run(
        processor, Scenario.from_queues(cpu_q, gpu_q),
        governor=governors[BASE_CAP_W],
    )
    record["fixed/base"] = _measured(base)
    period = base.makespan_s / 8
    changes = tuple(
        (period * k, governors[TRACE_CAPS_W[(k - 1) % len(TRACE_CAPS_W)]])
        for k in range(1, 8)
    )
    capped = run(
        processor, Scenario.from_queues(cpu_q, gpu_q, cap_changes=changes),
        governor=governors[BASE_CAP_W],
    )
    record["fixed/cap-trace"] = _measured(capped)

    part = default_partition(table, jobs)
    timeshare = run(
        processor, Scenario.timeshare(part.cpu_partition, part.gpu_partition),
        governor=governors[BASE_CAP_W],
    )
    record["timeshare"] = _measured(timeshare)

    for cap in REACTIVE_CAPS_W:
        result, _ = execute_with_reactive_cap(processor, cpu_q, gpu_q, cap)
        record[f"reactive/{cap:g}W"] = _measured(result)
    return record


def render() -> str:
    """The fixture's exact text: one run per line."""
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in drive().items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main() -> None:
    FIXTURE.write_text(render())
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
