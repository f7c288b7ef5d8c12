"""CPU multiprogramming semantics for the Default (Linux-like) baseline.

The paper's Default baseline hands its CPU partition to the OS scheduler,
which launches *all* CPU jobs at once and time-shares them.  Section VI-D
attributes Default's collapse in the 16-program study to exactly this:
context switching adds overhead and worsens locality (more cache misses and
page faults), so with many resident jobs the CPU side falls far behind.

Model: ``n`` resident jobs each progress at ``1 / (n * penalty(n))`` of
their contended solo rate, with ``penalty(n) = 1 + cs_overhead * (n - 1)``.
Because the jobs time-slice, the memory demand the CPU side presents to the
GPU co-runner is the *average* of the residents' current-phase demands, and
each resident suffers the stall factor computed from that aggregate.
The GPU partition runs sequentially (the GPU driver serializes kernels).

The public entry point is ``engine.run()`` with a
``Scenario.timeshare(...)``.  The time-sharing loop itself
(:func:`_timeshare_run`) stays here because its n-resident progress model
does not fit the one-runner-per-device simulation core.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from repro.hardware.device import DeviceKind
from repro.hardware.processor import IntegratedProcessor
from repro.workload.program import Job
from repro.engine.corun import PhasedRunner
from repro.engine.tracing import JobCompletion, PowerSegment
from repro.engine.sim import ExecutionResult, GovernorFn, _MAX_EVENTS

#: Default per-extra-resident context-switch/locality overhead.  At 3
#: resident jobs (the 8-program study) the penalty is a mild 1.26x; at 6
#: residents (the 16-program study) it reaches 1.65x — the regime where the
#: paper observed Default falling behind even Random.
DEFAULT_CS_OVERHEAD = 0.13


def _timeshare_run(
    processor: IntegratedProcessor,
    cpu_jobs: Sequence[Job],
    gpu_queue: Sequence[Job],
    governor: GovernorFn,
    *,
    cs_overhead: float = DEFAULT_CS_OVERHEAD,
    objective: str = "makespan",
) -> ExecutionResult:
    """Execute the Default baseline: time-shared CPU side, sequential GPU side.

    The governor is consulted with a representative running pair (the CPU
    job that has made the least progress, plus the current GPU job) whenever
    the resident set or the GPU job changes.
    """
    all_uids = [j.uid for j in cpu_jobs] + [j.uid for j in gpu_queue]
    if len(set(all_uids)) != len(all_uids):
        raise ValueError("a job appears more than once in the schedule")

    residents: list[tuple[Job, PhasedRunner]] = [
        (job, PhasedRunner(job.profile, processor, DeviceKind.CPU,
                           processor.cpu.domain.fmax))
        for job in cpu_jobs
    ]
    gpu_pending = deque(gpu_queue)
    gpu_run: PhasedRunner | None = None
    gpu_job: Job | None = None
    gpu_start = 0.0

    t = 0.0
    completions: list[JobCompletion] = []
    segments: list[PowerSegment] = []
    cpu_busy = gpu_busy = 0.0
    pair_changed = True
    setting = None

    for _ in range(_MAX_EVENTS):
        if gpu_run is None and gpu_pending:
            gpu_job = gpu_pending.popleft()
            gpu_run = PhasedRunner(
                gpu_job.profile, processor, DeviceKind.GPU, processor.gpu.domain.fmax
            )
            gpu_start = t
            pair_changed = True
        if not residents and gpu_run is None:
            break
        if pair_changed or setting is None:
            rep_cpu = residents[0][0] if residents else None
            setting = governor(rep_cpu, gpu_job if gpu_run else None)
            processor.validate_setting(setting)
            for _, runner in residents:
                runner.set_frequency(setting.cpu_ghz)
            if gpu_run is not None:
                gpu_run.set_frequency(setting.gpu_ghz)
            pair_changed = False

        n = len(residents)
        penalty = 1.0 + cs_overhead * max(0, n - 1)
        share = n * penalty  # wall seconds per second of solo progress

        cpu_demand = (
            sum(r.demand_gbps() for _, r in residents) / n if n else 0.0
        )
        gpu_demand = gpu_run.demand_gbps() if gpu_run is not None else 0.0
        stall_cpu, stall_gpu = processor.memory.pair_stall_factors(
            cpu_demand, gpu_demand
        )

        # Next event: earliest phase boundary across all runners.
        dts = []
        for _, runner in residents:
            dts.append(runner.time_to_phase_end(stall_cpu) * share)
        if gpu_run is not None:
            dts.append(gpu_run.time_to_phase_end(stall_gpu))
        dt = min(dts)

        # Chip power for this segment.
        power = processor.power
        if n:
            phi = sum(r.compute_fraction(stall_cpu) for _, r in residents) / n
            util_c = power.cpu.effective_util(phi)
            bw_c = cpu_demand / stall_cpu
        else:
            util_c, bw_c = power.cpu.idle_util, 0.0
        if gpu_run is not None:
            util_g = power.gpu.effective_util(gpu_run.compute_fraction(stall_gpu))
            bw_g = gpu_run.achieved_bw(stall_gpu)
        else:
            util_g, bw_g = power.gpu.idle_util, 0.0
        watts = processor.chip_power(setting, util_c, util_g, bw_c + bw_g)
        if dt > 0:
            segments.append(PowerSegment(duration_s=dt, watts=watts))
            if n:
                cpu_busy += dt
            if gpu_run is not None:
                gpu_busy += dt

        still_resident = []
        for job, runner in residents:
            runner.advance(dt / share, stall_cpu)
            if runner.done:
                completions.append(JobCompletion(job.uid, "cpu", t + dt, 0.0))
                pair_changed = True
            else:
                still_resident.append((job, runner))
        residents = still_resident
        if gpu_run is not None:
            gpu_run.advance(dt, stall_gpu)
            if gpu_run.done:
                completions.append(
                    JobCompletion(gpu_job.uid, "gpu", t + dt, gpu_start)
                )
                gpu_run, gpu_job = None, None
                pair_changed = True
        t += dt
    else:  # pragma: no cover - defensive
        raise RuntimeError("default-schedule execution exceeded the event budget")

    return ExecutionResult(
        makespan_s=t,
        completions=tuple(completions),
        segments=tuple(segments),
        cpu_busy_s=cpu_busy,
        gpu_busy_s=gpu_busy,
        arrivals={uid: 0.0 for uid in all_uids},
        objective=objective,
        backend="engine.timeshare",
    )
