"""``sim-trace``: host-time simulation with no scheduler in the loop.

One unit is a bundle of four run types:

(a) a seeded 256-job x 400-phase arrivals trace with preemption and
    migration penalties, driven by a FIFO policy that preempts or migrates
    at fixed completion counts (the shape of ``test_sim_core.py``);
(b) fixed-schedule replays of HCS schedules under a power-cap trace;
(c) ``Scenario.timeshare`` runs of the Default baseline;
(d) ``execute_with_reactive_cap`` runs at 12, 15 and 20 W.

The schedules and governors are built in set-up, so SimCore and the two
side loops do all the timed work and no search layer runs.  An op is one
simulated job completion, a count that stays comparable if the side loops
move into SimCore.
"""

from __future__ import annotations

import bisect

from repro.analysis.invariants import verify_execution
from repro.core.api import schedule
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

from bench.workloads import Workload

REACTIVE_CAPS_W = (12.0, 15.0, 20.0)
#: The cap trace of run type (b) cycles through these, starting at 15 W.
TRACE_CAPS_W = (12.0, 20.0, 15.0)
BASE_CAP_W = 15.0
PENALTIES = PenaltyModel(
    checkpoint_s=0.05, restart_s=0.05, migrate_s=0.1, warmup_s=0.2, warmup_factor=1.2
)


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
        if self.completions % 16 == 0 and len(sim.running) == 1:
            (kind,) = sim.running
            sim.migrate(kind)
        elif self.completions % 8 == 0 and DeviceKind.CPU in sim.running:
            sim.preempt(DeviceKind.CPU)


def _many_phase_program(name, compute_s, low, high, n_phases) -> ProgramProfile:
    phases = tuple(
        Phase(weight=1.0, intensity=high if k % 2 else low) for k in range(n_phases)
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


class SimTrace(Workload):
    name = "sim-trace"

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(workdir)
        self.processor = make_ivy_bridge()
        rng = default_rng(seed)
        n_jobs, n_phases = (256, 400) if not smoke else (24, 40)
        programs = [
            _many_phase_program(
                f"p{i}",
                float(rng.uniform(2.0, 5.0)),
                float(rng.uniform(0.3, 0.8)),
                float(rng.uniform(1.2, 1.8)),
                n_phases,
            )
            for i in range(16)
        ]
        trace_jobs = [
            Job(uid=f"trace{i:04d}", profile=programs[int(rng.integers(16))])
            for i in range(n_jobs)
        ]
        self.trace = Scenario.from_arrivals(
            [(job, 0.5 * i) for i, job in enumerate(trace_jobs)],
            penalties=PENALTIES,
        )
        top = FrequencySetting(
            cpu_ghz=self.processor.cpu.domain.fmax,
            gpu_ghz=self.processor.gpu.domain.fmax,
        )
        self.top_governor = lambda cpu_job, gpu_job: top

        space = characterize_space(self.processor)
        self.instances = []
        for _ in range(3 if not smoke else 1):
            jobs = random_workload(48 if not smoke else 8, rng)
            table = profile_workload(self.processor, jobs)
            predictor = CoRunPredictor(self.processor, table, space)
            planned = schedule(jobs, "hcs", cap_w=BASE_CAP_W, predictor=predictor)
            governors = {
                cap: SchedulingContext.build(
                    jobs, cap_w=cap, predictor=predictor
                ).governor
                for cap in set(TRACE_CAPS_W) | set(REACTIVE_CAPS_W)
            }
            period = planned.predicted_makespan_s / 8
            changes = [
                (period * k, TRACE_CAPS_W[(k - 1) % len(TRACE_CAPS_W)])
                for k in range(1, 8)
            ]
            part = default_partition(table, jobs)
            self.instances.append({
                "n": len(jobs),
                "fixed": Scenario.from_schedule(
                    planned.schedule,
                    cap_changes=tuple((at, governors[cap]) for at, cap in changes),
                ),
                "changes": changes,
                "timeshare": Scenario.timeshare(
                    part.cpu_partition, part.gpu_partition
                ),
                "governor": governors[BASE_CAP_W],
                "queues": (planned.schedule.cpu_queue, planned.schedule.gpu_queue),
            })
        self.expected = [n_jobs]
        for inst in self.instances:
            queued = sum(len(q) for q in inst["queues"])
            self.expected += [inst["n"], inst["n"]] + [queued] * len(REACTIVE_CAPS_W)

    def units(self) -> list:
        return [self._bundle]

    def warmup(self) -> None:
        inst = self.instances[0]
        run(self.processor, inst["fixed"], governor=inst["governor"])
        execute_with_reactive_cap(self.processor, *inst["queues"], BASE_CAP_W)

    def _runs(self) -> list:
        policy = PreemptingFifo()
        out = [run(self.processor, self.trace, policy=policy, governor=self.top_governor)]
        for inst in self.instances:
            out.append(run(self.processor, inst["fixed"], governor=inst["governor"]))
            out.append(run(self.processor, inst["timeshare"], governor=inst["governor"]))
            for cap in REACTIVE_CAPS_W:
                out.append(
                    execute_with_reactive_cap(self.processor, *inst["queues"], cap)[0]
                )
        return out

    def _bundle(self, rec) -> None:
        self.attempted += sum(self.expected)
        try:
            with rec.op() as op:
                runs = self._runs()
                op.count = sum(len(r.completions) for r in runs)
        except Exception:
            self.crash(sum(self.expected))
            return
        with self.check():
            if self.first_run("bundle"):
                self._verify(runs)
            self.same_as_first(
                "bundle",
                tuple((r.makespan_s, r.events_processed, len(r.completions)) for r in runs),
                count=sum(self.expected),
            )

    def _verify(self, runs) -> None:
        for result, expected in zip(runs, self.expected):
            problems = [str(v) for v in verify_execution(result)]
            if len(result.completions) != expected:
                problems.append(
                    f"{len(result.completions)} of {expected} jobs completed"
                )
            if problems:
                self.fail(expected, "; ".join(problems))
        trace = runs[0]
        if not trace.preemptions or not any(p.migrated for p in trace.preemptions):
            self.fail(self.expected[0], "the trace run never preempted and migrated")
        per_instance = 2 + len(REACTIVE_CAPS_W)
        for k, inst in enumerate(self.instances):
            fixed, timeshare = runs[1 + k * per_instance : 3 + k * per_instance]
            self.note("overshoot", _overshoot(fixed, BASE_CAP_W, inst["changes"]))
            self.note("overshoot", _overshoot(timeshare, BASE_CAP_W, []))


def _overshoot(result, cap_w: float, changes) -> float:
    """Worst simulated power above the cap in force, over the timeline."""
    times = [at for at, _ in changes]
    t = 0.0
    worst = -cap_w
    for segment in result.segments:
        k = bisect.bisect_right(times, t)
        cap = changes[k - 1][1] if k else cap_w
        worst = max(worst, segment.watts - cap)
        t += segment.duration_s
    return worst
