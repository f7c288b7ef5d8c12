"""Discrete-event simulation core behind the unified ``engine.run()`` API.

This module replaces the engine's four divergent executors
(``execute_schedule`` / ``execute_online`` / ``execute_with_arrivals`` /
``execute_default_schedule``) with one event-driven core:

* a priority event queue over virtual time — job arrivals, scheduled
  power-cap (governor) changes, and deadlines, interleaved with the
  phase-boundary stepping events of the co-run ground truth;
* per-device busy state (one :class:`~repro.engine.corun.PhasedRunner`
  per processor side) with the exact same stall/power arithmetic as the
  legacy executors, so non-preemptive scenarios replay byte-identically;
* a pluggable scheduling policy consulted whenever a device is idle, with
  an optional ``on_event(sim, event)`` hook invoked at every discrete
  event — the point where mid-run rescheduling plugs in;
* mid-run preemption (:meth:`SimCore.preempt`) and CPU<->GPU migration
  (:meth:`SimCore.migrate`) under a configurable :class:`PenaltyModel`
  (checkpoint/restart cost, migration cost, post-restore warm-up
  degradation);
* deadline attributes with miss accounting
  (:attr:`ExecutionResult.violations`).

:func:`run` is the single public entry point: it takes a target (an
:class:`~repro.hardware.processor.IntegratedProcessor` or a
``SchedulingContext``), a :class:`Scenario`, and optionally a policy, and
returns an :class:`ExecutionResult`.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field, replace
from collections.abc import Callable, Mapping, Sequence

from repro.hardware.device import DeviceKind
from repro.hardware.frequency import FrequencySetting
from repro.hardware.processor import IntegratedProcessor
from repro.objective import Objective
from repro.units import Joules, Seconds, Watts
from repro.workload.program import Job
from repro.engine.corun import PhasedRunner, _pair_stalls, _segment_power
from repro.engine.events import EventKind, SimEvent
from repro.engine.standalone import PhaseTiming, phase_timings
from repro.engine.tracing import (
    JobCompletion,
    PowerSegment,
    segments_energy_j,
    segments_mean_power_w,
)

#: Governor signature: (running CPU job or None, running GPU job or None) ->
#: chip frequency setting.  Consulted every time the running pair changes.
GovernorFn = Callable[[Job | None, Job | None], FrequencySetting]

#: Policy signature: (kind being filled, arrived unstarted jobs, job running
#: on the other processor or None, now) -> job to start or None (stay idle).
PolicyFn = Callable[[DeviceKind, "list[Job]", Job | None, float], Job | None]

_MAX_EVENTS = 1_000_000

#: Public alias of the per-advance event budget (used by the service layer
#: to bound a single incremental step).
MAX_EVENTS = _MAX_EVENTS

_EPS = 1e-12

#: Slack for deadline-miss accounting, coarser than the phase-progress
#: epsilon so float noise at a phase boundary never flags a miss.
_DEADLINE_EPS = 1e-9

_STUCK_DEFAULT = "policy declined to issue a job with both processors idle"

#: Bounds of a :class:`SimCore`'s per-run memos.  A service session keeps
#: one core for the daemon's whole life, so each memo clears when full:
#: the segment physics at this many entries, ...
_PHYSICS_MEMO_MAX = 8192
#: ... and the phase timings at this many (profile, device, frequency)
#: entries or this many interned phase values, whichever fills first.
_TIMING_MEMO_MAX = 1024
_PHASE_TOKENS_MAX = 65536


# ----------------------------------------------------------------------
# Scenario description
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSpec:
    """One job of a scenario: the work plus its open-system attributes."""

    job: Job
    arrival_s: Seconds = 0.0
    deadline_s: Seconds | None = None

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError(f"{self.job.uid}: negative arrival time")
        if self.deadline_s is not None and self.deadline_s < self.arrival_s:
            raise ValueError(f"{self.job.uid}: deadline precedes arrival")


@dataclass(frozen=True)
class PenaltyModel:
    """Cost model for preemption and CPU<->GPU migration.

    ``checkpoint_s`` + ``restart_s`` of device time are paid when a
    preempted job is placed again (the device is held busy but makes no
    progress); ``migrate_s`` is added when it resumes on the *other*
    processor (state transfer).  After the penalty, the job runs degraded
    by ``warmup_factor`` (>= 1, e.g. 1.5 = 50% slower) for ``warmup_s``
    wall seconds — the cold-cache/recompile window.
    """

    checkpoint_s: Seconds = 0.0
    restart_s: Seconds = 0.0
    migrate_s: Seconds = 0.0
    warmup_s: Seconds = 0.0
    warmup_factor: float = 1.0

    def __post_init__(self) -> None:
        for name in ("checkpoint_s", "restart_s", "migrate_s", "warmup_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.warmup_factor < 1.0:
            raise ValueError("warmup_factor must be >= 1 (a degradation)")

    @property
    def resume_cost_s(self) -> Seconds:
        """Device time paid on a same-device resume."""
        return self.checkpoint_s + self.restart_s


@dataclass(frozen=True)
class Scenario:
    """Declarative description of one execution for :func:`run`.

    Exactly one mode applies:

    * **fixed** — ``cpu_queue``/``gpu_queue``/``solo_tail`` given: replay
      the co-schedule (the old ``execute_schedule`` semantics).  ``jobs``
      may still carry deadlines for queue jobs (matched by uid; their
      arrival times are ignored — queue jobs are available at time zero).
    * **timeshare** — ``cpu_timeshare=True``: all CPU jobs resident at
      once under context-switch overhead, sequential GPU queue (the old
      ``execute_default_schedule`` semantics).  ``cs_overhead`` (>= 0)
      applies to this mode only and is rejected anywhere else.
    * **arrivals** — otherwise: ``jobs`` arrive over time and a policy
      places them (the old ``execute_with_arrivals`` / ``execute_online``
      semantics; a batch is every job arriving at time zero).

    ``cap_changes`` schedules governor swaps at fixed virtual times (a
    power-cap trace); ``penalties`` prices preemption and migration;
    ``until_s`` bounds the run (default: run to completion).
    """

    jobs: tuple[JobSpec, ...] = ()
    cpu_queue: tuple[Job, ...] | None = None
    gpu_queue: tuple[Job, ...] | None = None
    solo_tail: tuple[tuple[Job, DeviceKind], ...] = ()
    cap_changes: tuple[tuple[float, GovernorFn], ...] = ()
    penalties: PenaltyModel = field(default_factory=PenaltyModel)
    cpu_timeshare: bool = False
    cs_overhead: float | None = None
    until_s: float = math.inf

    def __post_init__(self) -> None:
        object.__setattr__(self, "jobs", tuple(self.jobs))
        if self.cpu_queue is not None:
            object.__setattr__(self, "cpu_queue", tuple(self.cpu_queue))
        if self.gpu_queue is not None:
            object.__setattr__(self, "gpu_queue", tuple(self.gpu_queue))
        object.__setattr__(self, "solo_tail", tuple(self.solo_tail))
        object.__setattr__(self, "cap_changes", tuple(self.cap_changes))
        if self.cs_overhead is not None:
            if not self.cpu_timeshare:
                raise ValueError("cs_overhead requires cpu_timeshare=True")
            if self.cs_overhead < 0:
                raise ValueError("cs_overhead must be non-negative")

    @property
    def fixed(self) -> bool:
        """True when the scenario replays a fixed co-schedule."""
        return (
            self.cpu_queue is not None
            or self.gpu_queue is not None
            or bool(self.solo_tail)
        )

    @classmethod
    def from_queues(
        cls,
        cpu_queue: Sequence[Job],
        gpu_queue: Sequence[Job],
        *,
        solo_tail: Sequence[tuple[Job, DeviceKind]] = (),
        **kwargs,
    ) -> "Scenario":
        """Fixed-schedule scenario from the two queues plus a solo tail."""
        return cls(
            cpu_queue=tuple(cpu_queue),
            gpu_queue=tuple(gpu_queue),
            solo_tail=tuple(solo_tail),
            **kwargs,
        )

    @classmethod
    def from_schedule(cls, schedule, **kwargs) -> "Scenario":
        """Fixed-schedule scenario from a ``CoSchedule``-like object."""
        return cls.from_queues(
            schedule.cpu_queue,
            schedule.gpu_queue,
            solo_tail=schedule.solo_tail,
            **kwargs,
        )

    @classmethod
    def from_arrivals(
        cls, arrivals: Sequence[tuple[Job, float]], **kwargs
    ) -> "Scenario":
        """Open-system scenario from (job, arrival time) pairs."""
        return cls(
            jobs=tuple(JobSpec(job=job, arrival_s=at_s) for job, at_s in arrivals),
            **kwargs,
        )

    @classmethod
    def timeshare(
        cls,
        cpu_jobs: Sequence[Job],
        gpu_queue: Sequence[Job],
        *,
        cs_overhead: float | None = None,
        **kwargs,
    ) -> "Scenario":
        """Default-baseline scenario: time-shared CPU side, serial GPU."""
        return cls(
            cpu_queue=tuple(cpu_jobs),
            gpu_queue=tuple(gpu_queue),
            cpu_timeshare=True,
            cs_overhead=cs_overhead,
            **kwargs,
        )


# ----------------------------------------------------------------------
# Result records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobStart:
    """Launch record: where a job started and under what conditions."""

    job: str
    kind: DeviceKind
    start_s: float
    setting: FrequencySetting
    partner: str | None


@dataclass(frozen=True)
class DeviceInterval:
    """One contiguous occupancy of a device by a job."""

    job: str
    device: str
    t0_s: float
    t1_s: float

    @property
    def duration_s(self) -> float:
        return self.t1_s - self.t0_s

    def to_dict(self) -> dict:
        return {
            "job": self.job,
            "device": self.device,
            "t0_s": self.t0_s,
            "t1_s": self.t1_s,
        }


@dataclass(frozen=True)
class PreemptionRecord:
    """One preemption: who was evicted, and how (if) it came back."""

    job: str
    from_device: str
    at_s: float
    resumed_device: str | None = None
    resumed_s: float | None = None
    penalty_s: float = 0.0
    migrated: bool = False

    def to_dict(self) -> dict:
        return {
            "job": self.job,
            "from_device": self.from_device,
            "at_s": self.at_s,
            "resumed_device": self.resumed_device,
            "resumed_s": self.resumed_s,
            "penalty_s": self.penalty_s,
            "migrated": self.migrated,
        }


@dataclass(frozen=True)
class DeadlineMiss:
    """One deadline/SLA violation.

    ``finish_s`` is ``None`` when the job had not finished by the end of
    the (bounded) run; ``lateness_s`` is then measured to the final clock.
    """

    job: str
    deadline_s: float
    finish_s: float | None
    lateness_s: float

    def to_dict(self) -> dict:
        return {
            "kind": "deadline-miss",
            "job": self.job,
            "deadline_s": self.deadline_s,
            "finish_s": self.finish_s,
            "lateness_s": self.lateness_s,
        }


@dataclass(frozen=True)
class ExecutionResult:
    """Unified outcome of any engine execution.

    The five leading fields are the legacy ``ScheduleExecution`` record
    (same names, same order — old constructors keep working); the rest is
    the event-driven extension: open-system metadata, the per-device
    occupancy timeline, preemption and deadline accounting, and the
    discrete event log.  ``objective``/``backend`` make results
    self-describing, like the evaluator's fingerprints.
    """

    makespan_s: Seconds
    completions: tuple[JobCompletion, ...]
    segments: tuple[PowerSegment, ...]
    cpu_busy_s: Seconds
    gpu_busy_s: Seconds
    arrivals: Mapping[str, float] = field(default_factory=dict)
    starts: Mapping[str, JobStart] = field(default_factory=dict)
    timeline: tuple[DeviceInterval, ...] = ()
    preemptions: tuple[PreemptionRecord, ...] = ()
    violations: tuple[DeadlineMiss, ...] = ()
    deadlines: Mapping[str, float] = field(default_factory=dict)
    events: tuple[SimEvent, ...] = ()
    events_processed: int = 0
    objective: str = "makespan"
    backend: str = "engine.sim"

    # -- legacy ScheduleExecution surface ------------------------------
    @property
    def mean_power_w(self) -> Watts:
        return segments_mean_power_w(self.segments)

    @property
    def energy_j(self) -> Joules:
        return segments_energy_j(self.segments)

    @property
    def edp_js(self) -> float:
        """Energy-delay product (J x s) of the whole execution."""
        return self.score(Objective.EDP)

    @property
    def flow_s(self) -> Seconds:
        """Total flow: sum of completion-minus-arrival over finished jobs."""
        return sum(
            c.finish_s - self.arrivals.get(c.job, 0.0)
            for c in self.completions
        )

    def score(self, objective: Objective | str | None = None) -> float:
        """Scalar score under an objective (lower is better).

        ``objective`` is an :class:`~repro.objective.Objective` or its
        string value; ``None`` scores under the result's own
        :attr:`objective`.
        """
        if objective is None:
            objective = self.objective
        return Objective.coerce(objective).score(
            self.makespan_s, self.energy_j, self.flow_s
        )

    def finish_of(self, job_uid: str) -> Seconds:
        """Completion time of a specific job."""
        for c in self.completions:
            if c.job == job_uid:
                return c.finish_s
        raise KeyError(f"job {job_uid!r} not in execution record")

    def start_of(self, job_uid: str) -> Seconds:
        """Launch time of a specific job."""
        for c in self.completions:
            if c.job == job_uid:
                return c.start_s
        raise KeyError(f"job {job_uid!r} not in execution record")

    # -- arrival-driven metrics ----------------------------------------
    def turnaround_s(self, uid: str) -> Seconds:
        return self.finish_of(uid) - self.arrivals[uid]

    @property
    def mean_turnaround_s(self) -> Seconds:
        return sum(self.turnaround_s(uid) for uid in self.arrivals) / len(
            self.arrivals
        )

    @property
    def max_turnaround_s(self) -> Seconds:
        return max(self.turnaround_s(uid) for uid in self.arrivals)

    # -- event-driven extension ----------------------------------------
    @property
    def deadline_misses(self) -> int:
        return len(self.violations)

    @property
    def preempted_jobs(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(p.job for p in self.preemptions))

    def intervals_of(self, job_uid: str) -> tuple[DeviceInterval, ...]:
        """The occupancy chain of one job, in time order."""
        return tuple(iv for iv in self.timeline if iv.job == job_uid)

    def with_objective(self, objective: Objective | str) -> "ExecutionResult":
        """A copy re-labelled with another objective (data unchanged)."""
        return replace(self, objective=Objective.coerce(objective).value)

    def to_dict(self) -> dict:
        """Stable plain-data form for the service wire protocol."""
        return {
            "schema": 1,
            "backend": self.backend,
            "objective": self.objective,
            "makespan_s": self.makespan_s,
            "cpu_busy_s": self.cpu_busy_s,
            "gpu_busy_s": self.gpu_busy_s,
            "energy_j": self.energy_j,
            "mean_power_w": self.mean_power_w,
            "events_processed": self.events_processed,
            "completions": [
                {
                    "job": c.job,
                    "kind": c.kind,
                    "finish_s": c.finish_s,
                    "start_s": c.start_s,
                }
                for c in self.completions
            ],
            "segments_n": len(self.segments),
            "arrivals": dict(self.arrivals),
            "starts": {
                uid: {
                    "kind": str(s.kind),
                    "start_s": s.start_s,
                    "partner": s.partner,
                    "cpu_ghz": s.setting.cpu_ghz,
                    "gpu_ghz": s.setting.gpu_ghz,
                }
                for uid, s in self.starts.items()
            },
            "timeline": [iv.to_dict() for iv in self.timeline],
            "preemptions": [p.to_dict() for p in self.preemptions],
            "violations": [v.to_dict() for v in self.violations],
            "deadlines": dict(self.deadlines),
            "events": [e.to_dict() for e in self.events],
        }


# ----------------------------------------------------------------------
# Internal mutable bookkeeping
# ----------------------------------------------------------------------
@dataclass
class _PreemptRec:
    job: str
    from_device: str
    at_s: float
    resumed_device: str | None = None
    resumed_s: float | None = None
    penalty_s: float = 0.0
    migrated: bool = False

    def freeze(self) -> PreemptionRecord:
        return PreemptionRecord(
            job=self.job,
            from_device=self.from_device,
            at_s=self.at_s,
            resumed_device=self.resumed_device,
            resumed_s=self.resumed_s,
            penalty_s=self.penalty_s,
            migrated=self.migrated,
        )


@dataclass
class _Suspended:
    """Checkpointed progress of a preempted job."""

    job: Job
    kind: DeviceKind
    phase_idx: int
    phase_frac: float
    rec: _PreemptRec


class SimCore:
    """Resumable discrete-event executor over virtual time.

    The simulation core under every :func:`run` mode and the live service
    session.  :meth:`add_arrival` injects future (or immediate) jobs,
    :meth:`advance` moves the timeline forward under a policy, consulting
    the governor whenever the running pair changes.  Between advances the
    caller may interleave arrivals, governor swaps, partial advances, and
    — unlike the legacy ``ArrivalSimulator`` — mid-run :meth:`preempt` /
    :meth:`migrate` calls, scheduled cap changes, and deadlines.

    Policies are callables ``(kind, pending, other_job, now) -> Job|None``
    that pick from the arrived jobs, and may additionally provide:

    * ``on_event(sim, event)`` — hook invoked at every discrete event
      (arrival, start/resume, completion, preemption, cap change,
      deadline), where rescheduling decisions can preempt or migrate;
    * ``stuck_message`` — error text when both devices idle with work
      remaining and the policy still declines.
    """

    def __init__(
        self,
        processor: IntegratedProcessor,
        governor: GovernorFn,
        *,
        penalties: PenaltyModel | None = None,
        record_events: bool = False,
    ):
        self.processor = processor
        self.governor = governor
        self.now = 0.0
        self.events_processed = 0
        self._future: list[tuple[float, int, Job]] = []
        self._timed: list[tuple[float, int, EventKind, object]] = []
        self._seq = 0
        self._pending: list[Job] = []
        self._uids: set[str] = set()
        self._arrivals: dict[str, float] = {}
        self._deadlines: dict[str, float] = {}
        self._finish: dict[str, float] = {}
        self._completions: list[JobCompletion] = []
        self._segments: list[PowerSegment] = []
        self._starts: dict[str, JobStart] = {}
        self._cpu_busy = 0.0
        self._gpu_busy = 0.0
        self._cpu_run: PhasedRunner | None = None
        self._gpu_run: PhasedRunner | None = None
        self._cpu_job: Job | None = None
        self._gpu_job: Job | None = None
        self._cpu_pen = self._gpu_pen = 0.0
        self._cpu_warm = self._gpu_warm = 0.0
        self._setting: FrequencySetting | None = None
        self._pair_changed = True
        self._penalties = penalties if penalties is not None else PenaltyModel()
        self._suspended: dict[str, _Suspended] = {}
        self._preempt_log: list[_PreemptRec] = []
        self._open: dict[DeviceKind, tuple[str, float] | None] = {
            DeviceKind.CPU: None,
            DeviceKind.GPU: None,
        }
        self._intervals: list[DeviceInterval] = []
        self._record_events = record_events
        self._events: list[SimEvent] = []
        self._hook = None
        # Per-run memos; nothing is shared between instances, and each is
        # bounded (see _PHYSICS_MEMO_MAX).  ``_timings`` holds, per
        # (profile identity, device, frequency), the profile (which keeps
        # its id unique), its phase timings and one integer token per
        # phase.  Phase tokens are interned by the timing's value plus the
        # program's sensitivity, settings by their value once validated;
        # the segment physics is keyed by (setting, CPU phase, GPU phase)
        # tokens, 0 standing for an idle side.  Tokens are never reused,
        # so a cleared intern table cannot make two values collide.
        self._timings: dict[
            tuple[int, DeviceKind, float],
            tuple[object, tuple[PhaseTiming, ...], tuple[int, ...]],
        ] = {}
        self._phase_tokens: dict[tuple[float, ...], int] = {}
        self._next_token = 1
        self._setting_tokens: dict[FrequencySetting, int] = {}
        self._tokened_setting: FrequencySetting | None = None
        self._setting_tok = 0
        self._cpu_toks: tuple[int, ...] = ()
        self._gpu_toks: tuple[int, ...] = ()
        self._phys_cache: dict[
            tuple[int, int, int], tuple[float, float | None, float | None]
        ] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_arrival(
        self, job: Job, at_s: Seconds, *, deadline_s: Seconds | None = None
    ) -> None:
        """Register ``job`` to arrive at virtual time ``at_s`` (>= now)."""
        if at_s < 0:
            raise ValueError(f"{job.uid}: negative arrival time")
        if at_s < self.now - _EPS:
            raise ValueError(
                f"{job.uid}: arrival at {at_s} is in the past (now={self.now})"
            )
        if job.uid in self._uids:
            raise ValueError("job uids must be unique")
        if deadline_s is not None and deadline_s < at_s:
            raise ValueError(f"{job.uid}: deadline precedes arrival")
        self._uids.add(job.uid)
        self._arrivals[job.uid] = at_s
        heapq.heappush(self._future, (at_s, self._seq, job))
        self._seq += 1
        if deadline_s is not None:
            self._deadlines[job.uid] = deadline_s
            self._push_timed(deadline_s, EventKind.DEADLINE, job.uid)

    def schedule_governor_change(self, at_s: Seconds, governor: GovernorFn) -> None:
        """Schedule a governor swap (power-cap change) at virtual time ``at_s``."""
        if at_s < self.now - _EPS:
            raise ValueError(f"cap change at {at_s} is in the past (now={self.now})")
        self._push_timed(at_s, EventKind.CAP_CHANGE, governor)

    def set_governor(self, governor: GovernorFn) -> None:
        """Swap the frequency governor; the running pair is re-evaluated."""
        self.governor = governor
        self.invalidate_setting()

    def invalidate_setting(self) -> None:
        """Force a governor consult at the next step (e.g. cap changed)."""
        self._pair_changed = True

    def withdraw(self, uid: str) -> Job:
        """Remove a not-yet-started job from the pending pool or the future."""
        for i, job in enumerate(self._pending):
            if job.uid == uid:
                del self._pending[i]
                self._forget(uid)
                return job
        for i, (_, _, job) in enumerate(self._future):
            if job.uid == uid:
                del self._future[i]
                heapq.heapify(self._future)
                self._forget(uid)
                return job
        raise KeyError(f"job {uid!r} is not pending (already started or unknown)")

    def _forget(self, uid: str) -> None:
        self._uids.discard(uid)
        del self._arrivals[uid]
        self._deadlines.pop(uid, None)
        self._suspended.pop(uid, None)

    # ------------------------------------------------------------------
    # Preemption and migration
    # ------------------------------------------------------------------
    def preempt(self, kind: DeviceKind) -> Job:
        """Checkpoint the job running on ``kind`` back into the pending pool.

        Progress is preserved as work fractions; when the policy places the
        job again it pays the :class:`PenaltyModel` resume cost on-device
        before making further progress (plus the migration cost if it lands
        on the other processor, plus the warm-up window after that).
        """
        run = self._cpu_run if kind is DeviceKind.CPU else self._gpu_run
        job = self._cpu_job if kind is DeviceKind.CPU else self._gpu_job
        if run is None or job is None:
            raise RuntimeError(f"nothing to preempt on {kind}")
        rec = _PreemptRec(job=job.uid, from_device=str(kind), at_s=self.now)
        self._preempt_log.append(rec)
        self._suspended[job.uid] = _Suspended(
            job=job,
            kind=kind,
            phase_idx=run.phase_idx,
            phase_frac=run.phase_frac,
            rec=rec,
        )
        self._close_interval(kind, self.now)
        if kind is DeviceKind.CPU:
            self._cpu_run, self._cpu_job = None, None
            self._cpu_pen = self._cpu_warm = 0.0
        else:
            self._gpu_run, self._gpu_job = None, None
            self._gpu_pen = self._gpu_warm = 0.0
        self._pending.append(job)
        self._pair_changed = True
        self._emit(EventKind.PREEMPTION, job=job.uid, device=str(kind))
        return job

    def migrate(self, kind: DeviceKind) -> Job:
        """Preempt the job on ``kind`` and resume it on the other processor
        immediately (paying checkpoint/restart plus the migration cost)."""
        target = kind.other
        target_busy = (
            self._cpu_run if target is DeviceKind.CPU else self._gpu_run
        ) is not None
        if target_busy:
            job = self._cpu_job if kind is DeviceKind.CPU else self._gpu_job
            uid = job.uid if job is not None else "<idle>"
            raise RuntimeError(f"cannot migrate {uid!r}: {target} is busy")
        job = self.preempt(kind)
        self._place(job, target)
        return job

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> tuple[Job, ...]:
        """Arrived but not yet started (or currently preempted) jobs."""
        return tuple(self._pending)

    @property
    def queued(self) -> int:
        """Jobs not yet started (arrived or future)."""
        return len(self._pending) + len(self._future)

    @property
    def running(self) -> dict[DeviceKind, Job]:
        out = {}
        if self._cpu_run is not None:
            out[DeviceKind.CPU] = self._cpu_job
        if self._gpu_run is not None:
            out[DeviceKind.GPU] = self._gpu_job
        return out

    @property
    def idle(self) -> bool:
        """True when nothing is running and nothing can ever start."""
        return (
            self._cpu_run is None
            and self._gpu_run is None
            and not self._pending
            and not self._future
        )

    @property
    def current_setting(self) -> FrequencySetting | None:
        return self._setting

    @property
    def arrivals(self) -> dict[str, float]:
        return dict(self._arrivals)

    @property
    def deadlines(self) -> dict[str, float]:
        return dict(self._deadlines)

    @property
    def starts(self) -> dict[str, JobStart]:
        return dict(self._starts)

    @property
    def preemptions(self) -> tuple[PreemptionRecord, ...]:
        """Frozen view of every preemption so far (resumed or not).

        The service tier reads this incrementally to mirror preempt and
        migrate transitions into its durable event log.
        """
        return tuple(rec.freeze() for rec in self._preempt_log)

    @property
    def completions(self) -> tuple[JobCompletion, ...]:
        return tuple(self._completions)

    @property
    def events(self) -> tuple[SimEvent, ...]:
        return tuple(self._events)

    def segments_since(self, index: int) -> tuple[PowerSegment, ...]:
        """The power segments recorded from position ``index`` on."""
        return tuple(self._segments[index:])

    def record(
        self, *, objective: str = "makespan", backend: str = "engine.sim"
    ) -> ExecutionResult:
        """The execution so far as a standard record."""
        timeline = list(self._intervals)
        for kind, open_iv in self._open.items():
            if open_iv is not None:
                uid, t0 = open_iv
                timeline.append(
                    DeviceInterval(job=uid, device=str(kind), t0_s=t0, t1_s=self.now)
                )
        violations = []
        for uid in sorted(self._deadlines):
            dl = self._deadlines[uid]
            finish = self._finish.get(uid)
            if finish is None:
                if self.now > dl + _DEADLINE_EPS:
                    violations.append(
                        DeadlineMiss(
                            job=uid,
                            deadline_s=dl,
                            finish_s=None,
                            lateness_s=self.now - dl,
                        )
                    )
            elif finish > dl + _DEADLINE_EPS:
                violations.append(
                    DeadlineMiss(
                        job=uid,
                        deadline_s=dl,
                        finish_s=finish,
                        lateness_s=finish - dl,
                    )
                )
        return ExecutionResult(
            makespan_s=self.now,
            completions=tuple(self._completions),
            segments=tuple(self._segments),
            cpu_busy_s=self._cpu_busy,
            gpu_busy_s=self._gpu_busy,
            arrivals=dict(self._arrivals),
            starts=dict(self._starts),
            timeline=tuple(timeline),
            preemptions=tuple(r.freeze() for r in self._preempt_log),
            violations=tuple(violations),
            deadlines=dict(self._deadlines),
            events=tuple(self._events),
            events_processed=self.events_processed,
            objective=objective,
            backend=backend,
        )

    # ------------------------------------------------------------------
    # Stepping internals
    # ------------------------------------------------------------------
    def _emit(
        self,
        kind: EventKind,
        *,
        job: str | None = None,
        device: str | None = None,
        at_s: float | None = None,
    ) -> None:
        self.events_processed += 1
        if self._record_events or self._hook is not None:
            event = SimEvent(
                at_s=self.now if at_s is None else at_s,
                kind=kind,
                job=job,
                device=device,
            )
            if self._record_events:
                self._events.append(event)
            if self._hook is not None:
                self._hook(self, event)

    def _push_timed(self, at_s: float, kind: EventKind, payload: object) -> None:
        heapq.heappush(self._timed, (at_s, self._seq, kind, payload))
        self._seq += 1

    def _close_interval(self, kind: DeviceKind, t1_s: float) -> None:
        open_iv = self._open[kind]
        if open_iv is not None:
            uid, t0 = open_iv
            self._intervals.append(
                DeviceInterval(job=uid, device=str(kind), t0_s=t0, t1_s=t1_s)
            )
            self._open[kind] = None

    def _admit(self) -> None:
        while self._future and self._future[0][0] <= self.now + _EPS:
            _, _, job = heapq.heappop(self._future)
            self._pending.append(job)
            self._emit(EventKind.ARRIVAL, job=job.uid)

    def _fire_timed(self) -> None:
        while self._timed and self._timed[0][0] <= self.now + _EPS:
            at_s, _, kind, payload = heapq.heappop(self._timed)
            if kind is EventKind.CAP_CHANGE:
                self.governor = payload
                self._pair_changed = True
                self._emit(EventKind.CAP_CHANGE, at_s=at_s)
            elif kind is EventKind.DEADLINE:
                uid = payload
                if uid in self._deadlines and uid not in self._finish:
                    self._emit(EventKind.DEADLINE, job=uid, at_s=at_s)

    def _place(self, job: Job, kind: DeviceKind) -> None:
        """Move pending ``job`` onto device ``kind`` (fresh start or
        post-preemption)."""
        self._pending.remove(job)
        # Untimed: the governor consult that must follow a placement times
        # it once, at the setting it will actually run at.
        runner = PhasedRunner(job.profile, self.processor, kind, None)
        sus = self._suspended.pop(job.uid, None)
        pen = warm = 0.0
        if sus is not None:
            runner.seek(sus.phase_idx, sus.phase_frac)
            pen = self._penalties.resume_cost_s
            migrated = kind is not sus.kind
            if migrated:
                pen += self._penalties.migrate_s
            warm = self._penalties.warmup_s
            sus.rec.resumed_device = str(kind)
            sus.rec.resumed_s = self.now
            sus.rec.penalty_s = pen
            sus.rec.migrated = migrated
        if kind is DeviceKind.CPU:
            self._cpu_job, self._cpu_run = job, runner
            self._cpu_pen, self._cpu_warm = pen, warm
        else:
            self._gpu_job, self._gpu_run = job, runner
            self._gpu_pen, self._gpu_warm = pen, warm
        self._open[kind] = (job.uid, self.now)
        self._pair_changed = True
        self._emit(
            EventKind.START if sus is None else EventKind.RESUME,
            job=job.uid,
            device=str(kind),
        )

    def _try_start(self, policy) -> list[tuple[Job, DeviceKind]]:
        started: list[tuple[Job, DeviceKind]] = []
        if self._cpu_run is None and self._pending:
            job = policy(
                DeviceKind.CPU, list(self._pending), self._gpu_job, self.now
            )
            if job is not None:
                self._place(job, DeviceKind.CPU)
                started.append((job, DeviceKind.CPU))
        if self._gpu_run is None and self._pending:
            job = policy(
                DeviceKind.GPU, list(self._pending), self._cpu_job, self.now
            )
            if job is not None:
                self._place(job, DeviceKind.GPU)
                started.append((job, DeviceKind.GPU))
        return started

    def _physics(
        self,
        key: tuple[int, int, int],
        cpu_eff: PhasedRunner | None,
        gpu_eff: PhasedRunner | None,
    ) -> tuple[float, float | None, float | None]:
        """Segment watts and contended durations for a physics-memo miss.

        All three are pure functions of the frequency setting and the two
        active phase timings (with their sensitivities), which is exactly
        what ``key``'s tokens stand for, so memoized results are
        bit-identical to the direct computation.
        """
        if len(self._phys_cache) >= _PHYSICS_MEMO_MAX:
            self._phys_cache.clear()
        stalls = _pair_stalls(self.processor, cpu_eff, gpu_eff)
        watts = _segment_power(
            self.processor, self._setting, cpu_eff, gpu_eff, stalls
        )
        cpu_dur = (
            cpu_eff.contended_duration(stalls[0]) if cpu_eff is not None else None
        )
        gpu_dur = (
            gpu_eff.contended_duration(stalls[1]) if gpu_eff is not None else None
        )
        hit = (watts, cpu_dur, gpu_dur)
        self._phys_cache[key] = hit
        return hit

    def _retime(self, runner: PhasedRunner, f_ghz: float) -> tuple[int, ...]:
        """Time ``runner`` at ``f_ghz`` from the per-run timing memo and
        return the tokens of its phases."""
        profile, kind = runner.profile, runner.kind
        key = (id(profile), kind, f_ghz)
        entry = self._timings.get(key)
        if entry is None:
            tokens = self._phase_tokens
            if (
                len(self._timings) >= _TIMING_MEMO_MAX
                or len(tokens) >= _PHASE_TOKENS_MAX
            ):
                self._timings.clear()
                tokens.clear()
            phases = phase_timings(profile, self.processor.device(kind), f_ghz)
            sensitivity = profile.sensitivity[kind]
            toks = []
            for pt in phases:
                # The dataclass's own field tuple: equal exactly when the
                # PhaseTiming values are, but hashed in C.
                value = (
                    pt.compute_s, pt.mem_s, pt.bytes_gb, pt.duration_s,
                    pt.overlap, sensitivity,
                )
                tok = tokens.setdefault(value, self._next_token)
                if tok == self._next_token:
                    self._next_token += 1
                toks.append(tok)
            entry = (profile, phases, tuple(toks))
            self._timings[key] = entry
        runner.retime(f_ghz, entry[1])
        return entry[2]

    def _consult_governor(self) -> None:
        setting = self.governor(
            self._cpu_job if self._cpu_run else None,
            self._gpu_job if self._gpu_run else None,
        )
        self._setting = setting
        if setting is not self._tokened_setting:
            tok = self._setting_tokens.get(setting)
            if tok is None:
                # Raises on an off-level setting, which is never cached.
                self.processor.validate_setting(setting)
                tok = len(self._setting_tokens) + 1
                self._setting_tokens[setting] = tok
            self._tokened_setting, self._setting_tok = setting, tok
        cpu_run, gpu_run = self._cpu_run, self._gpu_run
        if cpu_run is not None and cpu_run.f_ghz != setting.cpu_ghz:
            self._cpu_toks = self._retime(cpu_run, setting.cpu_ghz)
        if gpu_run is not None and gpu_run.f_ghz != setting.gpu_ghz:
            self._gpu_toks = self._retime(gpu_run, setting.gpu_ghz)
        self._pair_changed = False

    def _complete(self, kind: DeviceKind, new: list[JobCompletion]) -> None:
        """Retire the finished job on ``kind`` and emit its completion."""
        job = self._cpu_job if kind is DeviceKind.CPU else self._gpu_job
        assert job is not None
        uid = job.uid
        device = str(kind)
        done = JobCompletion(uid, device, self.now, self._starts[uid].start_s)
        self._completions.append(done)
        new.append(done)
        self._finish[uid] = self.now
        self._close_interval(kind, self.now)
        if kind is DeviceKind.CPU:
            self._cpu_run, self._cpu_job = None, None
        else:
            self._gpu_run, self._gpu_job = None, None
        self._pair_changed = True
        self._emit(EventKind.COMPLETION, job=uid, device=device)

    def advance(
        self, policy: PolicyFn, until_s: float = math.inf
    ) -> list[JobCompletion]:
        """Advance the timeline under ``policy`` to ``until_s`` (or idle).

        Returns the completions that happened during this call.  With a
        finite ``until_s`` the clock lands exactly on the boundary even if
        the system idles earlier, so later arrivals keep a consistent
        virtual "now"; jobs arriving exactly at the boundary are admitted
        and may start, but no further time passes.
        """
        self._hook = getattr(policy, "on_event", None)
        stuck = getattr(policy, "stuck_message", _STUCK_DEFAULT)
        wf = self._penalties.warmup_factor
        future, timed, pending = self._future, self._timed, self._pending
        phys = self._phys_cache
        new: list[JobCompletion] = []
        try:
            for _ in range(_MAX_EVENTS):
                if future and future[0][0] <= self.now + _EPS:
                    self._admit()
                if timed and timed[0][0] <= self.now + _EPS:
                    self._fire_timed()
                if pending and (self._cpu_run is None or self._gpu_run is None):
                    started = self._try_start(policy)
                else:
                    started = []

                if self._cpu_run is None and self._gpu_run is None:
                    if not pending and not future:
                        if math.isfinite(until_s) and self.now < until_s:
                            self.now = until_s
                        break
                    if not pending:
                        # Idle gap: jump to the next arrival (or boundary).
                        t_next = future[0][0]
                        if t_next > until_s:
                            self.now = until_s
                            break
                        self.now = t_next
                        continue
                    raise RuntimeError(stuck)

                if self._pair_changed or self._setting is None:
                    self._consult_governor()
                for job, kind in started:
                    if job.uid in self._starts:
                        continue  # resumed job: keep its first-launch record
                    partner = (
                        self._gpu_job if kind is DeviceKind.CPU else self._cpu_job
                    )
                    self._starts[job.uid] = JobStart(
                        job=job.uid,
                        kind=kind,
                        start_s=self.now,
                        setting=self._setting,
                        partner=partner.uid if partner is not None else None,
                    )

                now = self.now
                remaining = until_s - now
                if remaining <= _EPS:
                    break

                # A device serving a resume penalty is busy but presents no
                # memory demand and no compute activity — model it as idle
                # for stall and power purposes.
                cpu_run, gpu_run = self._cpu_run, self._gpu_run
                cpu_pen, gpu_pen = self._cpu_pen, self._gpu_pen
                cpu_eff = cpu_run if cpu_pen <= 0.0 else None
                gpu_eff = gpu_run if gpu_pen <= 0.0 else None
                key = (
                    self._setting_tok,
                    0 if cpu_eff is None else self._cpu_toks[cpu_eff.phase_idx],
                    0 if gpu_eff is None else self._gpu_toks[gpu_eff.phase_idx],
                )
                hit = phys.get(key)
                if hit is None:
                    hit = self._physics(key, cpu_eff, gpu_eff)
                watts, cpu_dur, gpu_dur = hit
                # dt is the min of the candidates in this order (CPU, GPU,
                # next arrival, next timed event, bound), first-wins on
                # ties like min().
                if cpu_run is not None:
                    if cpu_pen > 0.0:
                        dt = cpu_pen
                    else:
                        dt = (1.0 - cpu_run.phase_frac) * cpu_dur
                        if self._cpu_warm > 0.0:
                            dt = min(self._cpu_warm, dt * wf)
                if gpu_run is not None:
                    if gpu_pen > 0.0:
                        dt_gpu = gpu_pen
                    else:
                        dt_gpu = (1.0 - gpu_run.phase_frac) * gpu_dur
                        if self._gpu_warm > 0.0:
                            dt_gpu = min(self._gpu_warm, dt_gpu * wf)
                    if cpu_run is None or dt_gpu < dt:
                        dt = dt_gpu
                if future:
                    dt_next = max(future[0][0] - now, _EPS)
                    if dt_next < dt:
                        dt = dt_next
                if timed:
                    dt_next = max(timed[0][0] - now, _EPS)
                    if dt_next < dt:
                        dt = dt_next
                if math.isfinite(remaining) and remaining < dt:
                    dt = remaining
                if dt > 0:
                    self._segments.append(PowerSegment(dt, watts))
                    if cpu_run is not None:
                        self._cpu_busy += dt
                    if gpu_run is not None:
                        self._gpu_busy += dt
                # Advance the clock before completion handling so an
                # ``on_event`` hook that preempts at a completion sees the
                # post-step ``now`` (interval bookkeeping stays consistent).
                self.now = now = now + dt
                if cpu_run is not None:
                    if cpu_pen > 0.0:
                        cpu_pen -= dt
                        self._cpu_pen = 0.0 if cpu_pen <= _EPS else cpu_pen
                    else:
                        if self._cpu_warm > 0.0:
                            cpu_run.advance_in(dt / wf, cpu_dur)
                            self._cpu_warm -= dt
                            if self._cpu_warm <= _EPS:
                                self._cpu_warm = 0.0
                        else:
                            cpu_run.advance_in(dt, cpu_dur)
                        if cpu_run.done:
                            self._complete(DeviceKind.CPU, new)
                            # The completion hook may have preempted or
                            # migrated the GPU job.
                            gpu_run = self._gpu_run
                            gpu_pen = self._gpu_pen
                if gpu_run is not None:
                    if gpu_pen > 0.0:
                        gpu_pen -= dt
                        self._gpu_pen = 0.0 if gpu_pen <= _EPS else gpu_pen
                    else:
                        if self._gpu_warm > 0.0:
                            gpu_run.advance_in(dt / wf, gpu_dur)
                            self._gpu_warm -= dt
                            if self._gpu_warm <= _EPS:
                                self._gpu_warm = 0.0
                        else:
                            gpu_run.advance_in(dt, gpu_dur)
                        if gpu_run.done:
                            self._complete(DeviceKind.GPU, new)
                self.events_processed += 1
            else:  # pragma: no cover - defensive
                raise RuntimeError("simulation exceeded the event budget")
        finally:
            self._hook = None
        return new


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
class FixedSchedulePolicy:
    """Replays a fixed co-schedule: two queues, then the solo tail.

    Each device drains its own queue in order; solo-tail jobs are released
    strictly sequentially, and only once both queues are exhausted *and*
    the other processor has gone idle — reproducing the legacy
    ``execute_schedule`` semantics exactly.
    """

    def __init__(
        self,
        cpu_queue: Sequence[Job],
        gpu_queue: Sequence[Job],
        solo_tail: Sequence[tuple[Job, DeviceKind]] = (),
    ):
        self._cpu = deque(cpu_queue)
        self._gpu = deque(gpu_queue)
        self._solo = deque(solo_tail)

    def __call__(
        self, kind: DeviceKind, available: list[Job], other: Job | None, now: float
    ) -> Job | None:
        queue = self._cpu if kind is DeviceKind.CPU else self._gpu
        if queue:
            return queue.popleft()
        if self._cpu or self._gpu:
            return None  # this queue is done; wait for the other side
        if self._solo and other is None:
            job, solo_kind = self._solo[0]
            if solo_kind is kind:
                self._solo.popleft()
                return job
        return None


# ----------------------------------------------------------------------
# The unified entry point
# ----------------------------------------------------------------------
def run(
    target,
    scenario: Scenario,
    *,
    policy=None,
    governor: GovernorFn | None = None,
    record_events: bool = False,
    sanitize: bool | None = None,
) -> ExecutionResult:
    """Execute a :class:`Scenario` and return an :class:`ExecutionResult`.

    ``target`` is either an
    :class:`~repro.hardware.processor.IntegratedProcessor` (then
    ``governor`` is required) or a ``SchedulingContext`` (its predictor
    supplies the processor; its governor and objective are used unless
    overridden).  ``policy`` applies to arrival scenarios only: a
    ``(kind, available, other, now)`` callable (see :class:`SimCore`).

    With ``sanitize`` unset, the invariant verifier referees the result
    when the target context sanitizes or ``REPRO_SANITIZE=1`` is set.
    """
    ctx = None
    if isinstance(target, IntegratedProcessor):
        processor = target
    else:
        ctx = target
        processor = getattr(getattr(ctx, "predictor", None), "processor", None)
        if processor is None:
            raise TypeError(
                "run() target must be an IntegratedProcessor or a "
                "SchedulingContext whose predictor exposes a processor"
            )
        if governor is None:
            governor = getattr(ctx, "governor", None)
    if governor is None:
        raise TypeError(
            "run() needs a governor: pass governor=... or a context that "
            "carries one"
        )
    objective = Objective.coerce(getattr(ctx, "objective", Objective.MAKESPAN)).value

    if scenario.cpu_timeshare:
        if policy is not None:
            raise ValueError("timeshare scenarios do not take a policy")
        from repro.engine.multiprog import DEFAULT_CS_OVERHEAD, _timeshare_run

        cs = (
            scenario.cs_overhead
            if scenario.cs_overhead is not None
            else DEFAULT_CS_OVERHEAD
        )
        result = _timeshare_run(
            processor,
            list(scenario.cpu_queue or ()),
            list(scenario.gpu_queue or ()),
            governor,
            cs_overhead=cs,
            objective=objective,
        )
    elif scenario.fixed:
        if policy is not None:
            raise ValueError(
                "fixed scenarios replay their queues; policies apply to "
                "arrival scenarios"
            )
        cpu_q = list(scenario.cpu_queue or ())
        gpu_q = list(scenario.gpu_queue or ())
        solo = list(scenario.solo_tail)
        all_jobs = [j.uid for j in cpu_q] + [j.uid for j in gpu_q] + [
            j.uid for j, _ in solo
        ]
        if len(set(all_jobs)) != len(all_jobs):
            raise ValueError("a job appears more than once in the schedule")
        deadline_by_uid = {
            spec.job.uid: spec.deadline_s
            for spec in scenario.jobs
            if spec.deadline_s is not None
        }
        sim = SimCore(
            processor,
            governor,
            penalties=scenario.penalties,
            record_events=record_events,
        )
        for job in cpu_q + gpu_q + [j for j, _ in solo]:
            sim.add_arrival(job, 0.0, deadline_s=deadline_by_uid.get(job.uid))
        for at_s, gov in scenario.cap_changes:
            sim.schedule_governor_change(at_s, gov)
        sim.advance(FixedSchedulePolicy(cpu_q, gpu_q, solo), scenario.until_s)
        result = sim.record(objective=objective)
    else:
        if policy is None:
            raise ValueError("an arrival scenario needs a policy")
        if not scenario.jobs:
            raise ValueError("need at least one arriving job")
        uids = [spec.job.uid for spec in scenario.jobs]
        if len(set(uids)) != len(uids):
            raise ValueError("job uids must be unique")
        sim = SimCore(
            processor,
            governor,
            penalties=scenario.penalties,
            record_events=record_events,
        )
        for spec in scenario.jobs:
            sim.add_arrival(spec.job, spec.arrival_s, deadline_s=spec.deadline_s)
        for at_s, gov in scenario.cap_changes:
            sim.schedule_governor_change(at_s, gov)
        sim.advance(policy, scenario.until_s)
        result = sim.record(objective=objective)

    if sanitize is None:
        if ctx is not None:
            sanitize = bool(getattr(ctx, "sanitizing", False))
        else:
            from repro.analysis.invariants import env_sanitizer_enabled

            sanitize = env_sanitizer_enabled()
    if sanitize:
        from repro.analysis.invariants import check_execution

        check_execution(result, where="engine.run")
    return result
