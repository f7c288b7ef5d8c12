"""Frozen verbatim copies of the legacy engine executors.

The byte-identity suite (``test_run_equivalence.py``) must compare
``engine.run()`` against the *original* executor algorithms, not against
the deprecation shims (which forward to ``run()`` and would make the
comparison vacuous).  These are the pre-``repro.engine.sim`` bodies of
``execute_schedule`` / ``execute_online`` / ``ArrivalSimulator`` /
``execute_default_schedule``, copied at the moment of the migration and
deliberately never modified again — any behavior drift in the unified
core shows up as a mismatch against this file.

``reference_execute_with_reactive_cap`` is the hand-written reactive-cap
loop, frozen the same way when reactive control moved onto ``SimCore``.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field

from repro.hardware.device import DeviceKind
from repro.hardware.frequency import FrequencySetting
from repro.workload.program import Job
from repro.engine.corun import PhasedRunner, _pair_stalls, _segment_power
from repro.engine.tracing import JobCompletion, PowerSegment

_MAX_EVENTS = 1_000_000
_EPS = 1e-12


@dataclass(frozen=True)
class ReferenceExecution:
    """The legacy ``ScheduleExecution`` field set, for exact comparison."""

    makespan_s: float
    completions: tuple[JobCompletion, ...]
    segments: tuple[PowerSegment, ...]
    cpu_busy_s: float
    gpu_busy_s: float


def reference_execute_schedule(
    processor, cpu_queue, gpu_queue, governor, *, solo_tail=()
) -> ReferenceExecution:
    """The legacy ``execute_schedule`` body, verbatim."""
    all_jobs = [j.uid for j in cpu_queue] + [j.uid for j in gpu_queue] + [
        j.uid for j, _ in solo_tail
    ]
    if len(set(all_jobs)) != len(all_jobs):
        raise ValueError("a job appears more than once in the schedule")

    cpu_pending = deque(cpu_queue)
    gpu_pending = deque(gpu_queue)
    t = 0.0
    completions: list[JobCompletion] = []
    segments: list[PowerSegment] = []
    cpu_busy = gpu_busy = 0.0

    cpu_run: PhasedRunner | None = None
    gpu_run: PhasedRunner | None = None
    cpu_job: Job | None = None
    gpu_job: Job | None = None
    cpu_start = gpu_start = 0.0
    pair_changed = False

    for _ in range(_MAX_EVENTS):
        if cpu_run is None and cpu_pending:
            cpu_job = cpu_pending.popleft()
            cpu_run = PhasedRunner(
                cpu_job.profile, processor, DeviceKind.CPU, processor.cpu.domain.fmax
            )
            cpu_start = t
            pair_changed = True
        if gpu_run is None and gpu_pending:
            gpu_job = gpu_pending.popleft()
            gpu_run = PhasedRunner(
                gpu_job.profile, processor, DeviceKind.GPU, processor.gpu.domain.fmax
            )
            gpu_start = t
            pair_changed = True
        if cpu_run is None and gpu_run is None:
            break
        if pair_changed:
            setting = governor(cpu_job if cpu_run else None, gpu_job if gpu_run else None)
            processor.validate_setting(setting)
            if cpu_run is not None:
                cpu_run.set_frequency(setting.cpu_ghz)
            if gpu_run is not None:
                gpu_run.set_frequency(setting.gpu_ghz)
            pair_changed = False

        stalls = _pair_stalls(processor, cpu_run, gpu_run)
        dts = []
        if cpu_run is not None:
            dts.append(cpu_run.time_to_phase_end(stalls[0]))
        if gpu_run is not None:
            dts.append(gpu_run.time_to_phase_end(stalls[1]))
        dt = min(dts)
        watts = _segment_power(processor, setting, cpu_run, gpu_run, stalls)
        if dt > 0:
            segments.append(PowerSegment(duration_s=dt, watts=watts))
            if cpu_run is not None:
                cpu_busy += dt
            if gpu_run is not None:
                gpu_busy += dt
        if cpu_run is not None:
            cpu_run.advance(dt, stalls[0])
            if cpu_run.done:
                completions.append(
                    JobCompletion(cpu_job.uid, "cpu", t + dt, cpu_start)
                )
                cpu_run, cpu_job = None, None
                pair_changed = True
        if gpu_run is not None:
            gpu_run.advance(dt, stalls[1])
            if gpu_run.done:
                completions.append(
                    JobCompletion(gpu_job.uid, "gpu", t + dt, gpu_start)
                )
                gpu_run, gpu_job = None, None
                pair_changed = True
        t += dt
    else:  # pragma: no cover - defensive
        raise RuntimeError("schedule execution exceeded the event budget")

    for job, kind in solo_tail:
        solo_start = t
        setting = governor(job if kind is DeviceKind.CPU else None,
                           job if kind is DeviceKind.GPU else None)
        processor.validate_setting(setting)
        f = setting.cpu_ghz if kind is DeviceKind.CPU else setting.gpu_ghz
        runner = PhasedRunner(job.profile, processor, kind, f)
        cpu_r = runner if kind is DeviceKind.CPU else None
        gpu_r = runner if kind is DeviceKind.GPU else None
        for _ in range(_MAX_EVENTS):
            if runner.done:
                break
            stalls = _pair_stalls(processor, cpu_r, gpu_r)
            stall = stalls[0] if kind is DeviceKind.CPU else stalls[1]
            dt = runner.time_to_phase_end(stall)
            watts = _segment_power(processor, setting, cpu_r, gpu_r, stalls)
            if dt > 0:
                segments.append(PowerSegment(duration_s=dt, watts=watts))
                if kind is DeviceKind.CPU:
                    cpu_busy += dt
                else:
                    gpu_busy += dt
            runner.advance(dt, stall)
            t += dt
        else:  # pragma: no cover - defensive
            raise RuntimeError("solo-tail execution exceeded the event budget")
        completions.append(JobCompletion(job.uid, str(kind), t, solo_start))

    return ReferenceExecution(
        makespan_s=t,
        completions=tuple(completions),
        segments=tuple(segments),
        cpu_busy_s=cpu_busy,
        gpu_busy_s=gpu_busy,
    )


def reference_execute_online(processor, source, governor) -> ReferenceExecution:
    """The legacy ``execute_online`` body, verbatim."""
    t = 0.0
    completions: list[JobCompletion] = []
    segments: list[PowerSegment] = []
    cpu_busy = gpu_busy = 0.0

    cpu_run: PhasedRunner | None = None
    gpu_run: PhasedRunner | None = None
    cpu_job: Job | None = None
    gpu_job: Job | None = None
    cpu_start = gpu_start = 0.0
    pair_changed = False
    setting = None

    for _ in range(_MAX_EVENTS):
        if cpu_run is None and source.remaining() > 0:
            job = source.next_job(
                DeviceKind.CPU, gpu_job, gpu_run is not None, t
            )
            if job is not None:
                cpu_job = job
                cpu_run = PhasedRunner(
                    job.profile, processor, DeviceKind.CPU, processor.cpu.domain.fmax
                )
                cpu_start = t
                pair_changed = True
        if gpu_run is None and source.remaining() > 0:
            job = source.next_job(
                DeviceKind.GPU, cpu_job, cpu_run is not None, t
            )
            if job is not None:
                gpu_job = job
                gpu_run = PhasedRunner(
                    job.profile, processor, DeviceKind.GPU, processor.gpu.domain.fmax
                )
                gpu_start = t
                pair_changed = True
        if cpu_run is None and gpu_run is None:
            if source.remaining() > 0:
                raise RuntimeError(
                    "online source declined to issue a job with both "
                    "processors idle"
                )
            break
        if pair_changed or setting is None:
            setting = governor(
                cpu_job if cpu_run else None, gpu_job if gpu_run else None
            )
            processor.validate_setting(setting)
            if cpu_run is not None:
                cpu_run.set_frequency(setting.cpu_ghz)
            if gpu_run is not None:
                gpu_run.set_frequency(setting.gpu_ghz)
            pair_changed = False

        stalls = _pair_stalls(processor, cpu_run, gpu_run)
        dts = []
        if cpu_run is not None:
            dts.append(cpu_run.time_to_phase_end(stalls[0]))
        if gpu_run is not None:
            dts.append(gpu_run.time_to_phase_end(stalls[1]))
        dt = min(dts)
        watts = _segment_power(processor, setting, cpu_run, gpu_run, stalls)
        if dt > 0:
            segments.append(PowerSegment(duration_s=dt, watts=watts))
            if cpu_run is not None:
                cpu_busy += dt
            if gpu_run is not None:
                gpu_busy += dt
        if cpu_run is not None:
            cpu_run.advance(dt, stalls[0])
            if cpu_run.done:
                completions.append(
                    JobCompletion(cpu_job.uid, "cpu", t + dt, cpu_start)
                )
                cpu_run, cpu_job = None, None
                pair_changed = True
        if gpu_run is not None:
            gpu_run.advance(dt, stalls[1])
            if gpu_run.done:
                completions.append(
                    JobCompletion(gpu_job.uid, "gpu", t + dt, gpu_start)
                )
                gpu_run, gpu_job = None, None
                pair_changed = True
        t += dt
    else:  # pragma: no cover - defensive
        raise RuntimeError("online execution exceeded the event budget")

    return ReferenceExecution(
        makespan_s=t,
        completions=tuple(completions),
        segments=tuple(segments),
        cpu_busy_s=cpu_busy,
        gpu_busy_s=gpu_busy,
    )


@dataclass(frozen=True)
class ReferenceJobStart:
    job: str
    kind: DeviceKind
    start_s: float
    setting: FrequencySetting
    partner: str | None


class ReferenceArrivalSimulator:
    """The legacy ``ArrivalSimulator``, verbatim."""

    def __init__(self, processor, governor):
        self.processor = processor
        self.governor = governor
        self.now = 0.0
        self._future: list[tuple[float, int, Job]] = []
        self._seq = 0
        self._pending: list[Job] = []
        self._uids: set[str] = set()
        self._arrivals: dict[str, float] = {}
        self._completions: list[JobCompletion] = []
        self._segments: list[PowerSegment] = []
        self._starts: dict[str, ReferenceJobStart] = {}
        self._cpu_busy = 0.0
        self._gpu_busy = 0.0
        self._cpu_run: PhasedRunner | None = None
        self._gpu_run: PhasedRunner | None = None
        self._cpu_job: Job | None = None
        self._gpu_job: Job | None = None
        self._setting: FrequencySetting | None = None
        self._pair_changed = True

    def add_arrival(self, job: Job, at_s: float) -> None:
        if at_s < 0:
            raise ValueError(f"{job.uid}: negative arrival time")
        if at_s < self.now - _EPS:
            raise ValueError(
                f"{job.uid}: arrival at {at_s} is in the past (now={self.now})"
            )
        if job.uid in self._uids:
            raise ValueError("job uids must be unique")
        self._uids.add(job.uid)
        self._arrivals[job.uid] = at_s
        heapq.heappush(self._future, (at_s, self._seq, job))
        self._seq += 1

    @property
    def arrivals(self) -> dict[str, float]:
        return dict(self._arrivals)

    @property
    def starts(self) -> dict[str, ReferenceJobStart]:
        return dict(self._starts)

    def record(self) -> ReferenceExecution:
        return ReferenceExecution(
            makespan_s=self.now,
            completions=tuple(self._completions),
            segments=tuple(self._segments),
            cpu_busy_s=self._cpu_busy,
            gpu_busy_s=self._gpu_busy,
        )

    def _admit(self) -> None:
        while self._future and self._future[0][0] <= self.now + _EPS:
            _, _, job = heapq.heappop(self._future)
            self._pending.append(job)

    def _try_start(self, policy):
        started = []
        if self._cpu_run is None and self._pending:
            job = policy(
                DeviceKind.CPU, list(self._pending), self._gpu_job, self.now
            )
            if job is not None:
                self._pending.remove(job)
                self._cpu_job = job
                self._cpu_run = PhasedRunner(
                    job.profile, self.processor, DeviceKind.CPU,
                    self.processor.cpu.domain.fmax,
                )
                self._pair_changed = True
                started.append((job, DeviceKind.CPU))
        if self._gpu_run is None and self._pending:
            job = policy(
                DeviceKind.GPU, list(self._pending), self._cpu_job, self.now
            )
            if job is not None:
                self._pending.remove(job)
                self._gpu_job = job
                self._gpu_run = PhasedRunner(
                    job.profile, self.processor, DeviceKind.GPU,
                    self.processor.gpu.domain.fmax,
                )
                self._pair_changed = True
                started.append((job, DeviceKind.GPU))
        return started

    def _consult_governor(self) -> None:
        self._setting = self.governor(
            self._cpu_job if self._cpu_run else None,
            self._gpu_job if self._gpu_run else None,
        )
        self.processor.validate_setting(self._setting)
        if self._cpu_run is not None:
            self._cpu_run.set_frequency(self._setting.cpu_ghz)
        if self._gpu_run is not None:
            self._gpu_run.set_frequency(self._setting.gpu_ghz)
        self._pair_changed = False

    def advance(self, policy, until_s: float = math.inf):
        new: list[JobCompletion] = []
        for _ in range(_MAX_EVENTS):
            self._admit()
            started = self._try_start(policy)

            if self._cpu_run is None and self._gpu_run is None:
                if not self._pending and not self._future:
                    if math.isfinite(until_s) and self.now < until_s:
                        self.now = until_s
                    break
                if not self._pending:
                    t_next = self._future[0][0]
                    if t_next > until_s:
                        self.now = until_s
                        break
                    self.now = t_next
                    continue
                raise RuntimeError(
                    "policy declined to issue a job with both processors idle"
                )

            if self._pair_changed or self._setting is None:
                self._consult_governor()
            for job, kind in started:
                partner = self._gpu_job if kind is DeviceKind.CPU else self._cpu_job
                self._starts[job.uid] = ReferenceJobStart(
                    job=job.uid,
                    kind=kind,
                    start_s=self.now,
                    setting=self._setting,
                    partner=partner.uid if partner is not None else None,
                )

            remaining = until_s - self.now
            if remaining <= _EPS:
                break

            stalls = _pair_stalls(self.processor, self._cpu_run, self._gpu_run)
            dts = []
            if self._cpu_run is not None:
                dts.append(self._cpu_run.time_to_phase_end(stalls[0]))
            if self._gpu_run is not None:
                dts.append(self._gpu_run.time_to_phase_end(stalls[1]))
            if self._future:
                dts.append(max(self._future[0][0] - self.now, _EPS))
            if math.isfinite(remaining):
                dts.append(remaining)
            dt = min(dts)

            watts = _segment_power(
                self.processor, self._setting, self._cpu_run, self._gpu_run,
                stalls,
            )
            if dt > 0:
                self._segments.append(PowerSegment(duration_s=dt, watts=watts))
                if self._cpu_run is not None:
                    self._cpu_busy += dt
                if self._gpu_run is not None:
                    self._gpu_busy += dt
            if self._cpu_run is not None:
                self._cpu_run.advance(dt, stalls[0])
                if self._cpu_run.done:
                    done = JobCompletion(
                        self._cpu_job.uid, "cpu", self.now + dt,
                        self._starts[self._cpu_job.uid].start_s,
                    )
                    self._completions.append(done)
                    new.append(done)
                    self._cpu_run, self._cpu_job = None, None
                    self._pair_changed = True
            if self._gpu_run is not None:
                self._gpu_run.advance(dt, stalls[1])
                if self._gpu_run.done:
                    done = JobCompletion(
                        self._gpu_job.uid, "gpu", self.now + dt,
                        self._starts[self._gpu_job.uid].start_s,
                    )
                    self._completions.append(done)
                    new.append(done)
                    self._gpu_run, self._gpu_job = None, None
                    self._pair_changed = True
            self.now += dt
        else:  # pragma: no cover - defensive
            raise RuntimeError("arrival execution exceeded the event budget")
        return new


def reference_execute_with_arrivals(processor, arrivals, policy, governor):
    """The legacy ``execute_with_arrivals`` body, verbatim."""
    if not arrivals:
        raise ValueError("need at least one arriving job")
    uids = [job.uid for job, _ in arrivals]
    if len(set(uids)) != len(uids):
        raise ValueError("job uids must be unique")

    sim = ReferenceArrivalSimulator(processor, governor)
    for job, t_arr in arrivals:
        sim.add_arrival(job, t_arr)
    sim.advance(policy)
    return sim


def reference_execute_default_schedule(
    processor, cpu_jobs, gpu_queue, governor, *, cs_overhead=0.13
) -> ReferenceExecution:
    """The legacy ``execute_default_schedule`` body, verbatim."""
    if cs_overhead < 0:
        raise ValueError("cs_overhead must be non-negative")
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
        share = n * penalty

        cpu_demand = (
            sum(r.demand_gbps() for _, r in residents) / n if n else 0.0
        )
        gpu_demand = gpu_run.demand_gbps() if gpu_run is not None else 0.0
        stall_cpu, stall_gpu = processor.memory.pair_stall_factors(
            cpu_demand, gpu_demand
        )

        dts = []
        for _, runner in residents:
            dts.append(runner.time_to_phase_end(stall_cpu) * share)
        if gpu_run is not None:
            dts.append(gpu_run.time_to_phase_end(stall_gpu))
        dt = min(dts)

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

    return ReferenceExecution(
        makespan_s=t,
        completions=tuple(completions),
        segments=tuple(segments),
        cpu_busy_s=cpu_busy,
        gpu_busy_s=gpu_busy,
    )


def reference_execute_with_reactive_cap(
    processor,
    cpu_queue,
    gpu_queue,
    cap_w,
    *,
    gpu_biased=True,
    control_interval_s=1.0,
    headroom_w=1.0,
):
    """The hand-written ``execute_with_reactive_cap`` loop, verbatim.

    Returns ``(ReferenceExecution, settings trace)``.  The controller is the
    live :class:`~repro.engine.feedback.ReactiveCapController`: only the
    execution loop around it is frozen here.
    """
    from repro.engine.feedback import ReactiveCapController
    from repro.util.validation import check_positive

    check_positive("control_interval_s", control_interval_s)
    all_uids = [j.uid for j in cpu_queue] + [j.uid for j in gpu_queue]
    if len(set(all_uids)) != len(all_uids):
        raise ValueError("a job appears more than once in the schedule")

    controller = ReactiveCapController(
        processor, cap_w, gpu_biased=gpu_biased, headroom_w=headroom_w
    )
    cpu_pending = deque(cpu_queue)
    gpu_pending = deque(gpu_queue)

    t = 0.0
    completions: list[JobCompletion] = []
    segments: list[PowerSegment] = []
    settings_trace: list[FrequencySetting] = [controller.setting]
    cpu_busy = gpu_busy = 0.0
    interval_energy = 0.0
    interval_elapsed = 0.0

    cpu_run = gpu_run = None
    cpu_job = gpu_job = None
    cpu_start = gpu_start = 0.0

    for _ in range(_MAX_EVENTS):
        if cpu_run is None and cpu_pending:
            cpu_job = cpu_pending.popleft()
            cpu_run = PhasedRunner(
                cpu_job.profile, processor, DeviceKind.CPU,
                controller.setting.cpu_ghz,
            )
            cpu_start = t
        if gpu_run is None and gpu_pending:
            gpu_job = gpu_pending.popleft()
            gpu_run = PhasedRunner(
                gpu_job.profile, processor, DeviceKind.GPU,
                controller.setting.gpu_ghz,
            )
            gpu_start = t
        if cpu_run is None and gpu_run is None:
            break

        setting = controller.setting
        if cpu_run is not None:
            cpu_run.set_frequency(setting.cpu_ghz)
        if gpu_run is not None:
            gpu_run.set_frequency(setting.gpu_ghz)

        stalls = _pair_stalls(processor, cpu_run, gpu_run)
        dts = [control_interval_s - interval_elapsed]
        if cpu_run is not None:
            dts.append(cpu_run.time_to_phase_end(stalls[0]))
        if gpu_run is not None:
            dts.append(gpu_run.time_to_phase_end(stalls[1]))
        dt = max(min(dts), 1e-12)

        watts = _segment_power(processor, setting, cpu_run, gpu_run, stalls)
        segments.append(PowerSegment(duration_s=dt, watts=watts))
        interval_energy += watts * dt
        interval_elapsed += dt
        if cpu_run is not None:
            cpu_busy += dt
        if gpu_run is not None:
            gpu_busy += dt

        if cpu_run is not None:
            cpu_run.advance(dt, stalls[0])
            if cpu_run.done:
                completions.append(
                    JobCompletion(cpu_job.uid, "cpu", t + dt, cpu_start)
                )
                cpu_run, cpu_job = None, None
        if gpu_run is not None:
            gpu_run.advance(dt, stalls[1])
            if gpu_run.done:
                completions.append(
                    JobCompletion(gpu_job.uid, "gpu", t + dt, gpu_start)
                )
                gpu_run, gpu_job = None, None
        t += dt

        if interval_elapsed >= control_interval_s - 1e-12:
            controller.observe(interval_energy / interval_elapsed)
            settings_trace.append(controller.setting)
            interval_energy = 0.0
            interval_elapsed = 0.0
    else:  # pragma: no cover - defensive
        raise RuntimeError("reactive execution exceeded the event budget")

    execution = ReferenceExecution(
        makespan_s=t,
        completions=tuple(completions),
        segments=tuple(segments),
        cpu_busy_s=cpu_busy,
        gpu_busy_s=gpu_busy,
    )
    return execution, settings_trace
