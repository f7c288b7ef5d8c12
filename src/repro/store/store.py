"""The job store: a validated fold over the event log.

:class:`StoreState` is pure state — a dict of :class:`StoredJob` records
plus the cap/clock — and :meth:`StoreState.apply` is the *only* mutation
path, one event at a time, validating every transition against the job
lifecycle::

    submitted -> queued -> running -> done
         |          |         |-> preempted -> running (resume/migrate)
         |          `-> rejected (late cap change)
         `-> rejected (admission)

plus ``requeued`` (crash recovery returns an interrupted job to
``queued``).  An event that breaks the lifecycle raises
:class:`StoreIntegrityError` — a log that does not fold cleanly is
corrupt, and the store refuses to guess.

:class:`JobStore` wraps a state and a log: ``commit()`` applies events
and stages them, ``flush()`` group-commits the staged batch durably (the
service acknowledges clients only after the flush), and ``open()``
recovers state as snapshot + suffix replay.  Snapshots are incremental:
the store tracks the jobs touched since its last snapshot and writes only
their rows, so a snapshot costs O(changed jobs), not O(jobs ever
submitted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.store.events import (
    CapChanged,
    ClockAdvanced,
    Event,
    JobAdmitted,
    JobCompleted,
    JobMigrated,
    JobPreempted,
    JobRejected,
    JobRequeued,
    JobScheduled,
    JobSubmitted,
)
from repro.store.log import SNAPSHOT_VERSION, EventLog, open_log

#: Lifecycle vocabulary (``StoredJob.state``).
SUBMITTED = "submitted"
QUEUED = "queued"
RUNNING = "running"
PREEMPTED = "preempted"
DONE = "done"
REJECTED = "rejected"

TERMINAL_STATES = frozenset({DONE, REJECTED})
LIVE_STATES = frozenset({SUBMITTED, QUEUED, RUNNING, PREEMPTED})


class StoreIntegrityError(RuntimeError):
    """An event that does not fold onto the current store state."""


@dataclass
class StoredJob:
    """Everything the store knows about one submission."""

    job_id: str
    program: str
    scale: float
    arrival_s: float
    tenant: str = "default"
    priority: int = 0
    idempotency_key: str | None = None
    objective: str | None = None
    state: str = SUBMITTED
    device: str | None = None
    cap_at_admit_w: float | None = None
    start_s: float | None = None
    finish_s: float | None = None
    energy_est_j: float = 0.0
    detail: str = ""

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in _JOB_FIELDS}


#: ``StoredJob`` is flat (atoms only), so its dict form is one getattr per
#: field — ``dataclasses.asdict``'s recursive deepcopy dominated snapshot
#: and verifier profiles.
_JOB_FIELDS = tuple(f.name for f in fields(StoredJob))


@dataclass
class StoreState:
    """The fold target: jobs, idempotency index, cap, clock, counters.

    ``idempotency`` maps each key to the job that owns it.  It is a
    function of ``jobs``: snapshots do not carry it and ``from_dict``
    rebuilds it from the job records.  ``tenant_live`` counts each
    tenant's live (not yet terminal) jobs — the quota index.  It is also
    derived from ``jobs``: the fold keeps it up to date, construction
    recomputes it, and snapshots do not carry it.
    """

    jobs: dict[str, StoredJob] = field(default_factory=dict)
    idempotency: dict[str, str] = field(default_factory=dict)
    cap_w: float | None = None
    now_s: float = 0.0
    completed: int = 0
    rejected: int = 0
    tenant_live: dict[str, int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        for job in self.jobs.values():
            if job.state in LIVE_STATES:
                self._count_live(job.tenant, 1)

    def _count_live(self, tenant: str, delta: int) -> None:
        count = self.tenant_live.get(tenant, 0) + delta
        if count:
            self.tenant_live[tenant] = count
        else:
            del self.tenant_live[tenant]

    # ------------------------------------------------------------------
    # The fold
    # ------------------------------------------------------------------
    def apply(self, event: Event) -> None:
        handler = self._APPLY.get(type(event))
        if handler is None:
            raise StoreIntegrityError(
                f"no fold rule for event {type(event).__name__}"
            )
        handler(self, event)

    def _job(self, job_id: str, event: Event) -> StoredJob:
        job = self.jobs.get(job_id)
        if job is None:
            raise StoreIntegrityError(
                f"{type(event).__name__} for unknown job {job_id!r}"
            )
        return job

    def _require(self, job: StoredJob, allowed: frozenset[str], event: Event) -> None:
        if job.state not in allowed:
            raise StoreIntegrityError(
                f"{type(event).__name__} on job {job.job_id!r} in state "
                f"{job.state!r} (expected one of {sorted(allowed)})"
            )

    def _apply_submitted(self, e: JobSubmitted) -> None:
        if e.job_id in self.jobs:
            raise StoreIntegrityError(
                f"duplicate JobSubmitted for {e.job_id!r}"
            )
        if e.idempotency_key is not None:
            owner = self.idempotency.get(e.idempotency_key)
            if owner is not None:
                raise StoreIntegrityError(
                    f"idempotency key {e.idempotency_key!r} already owned "
                    f"by {owner!r}"
                )
            self.idempotency[e.idempotency_key] = e.job_id
        self.jobs[e.job_id] = StoredJob(
            job_id=e.job_id,
            program=e.program,
            scale=e.scale,
            arrival_s=e.arrival_s,
            tenant=e.tenant,
            priority=e.priority,
            idempotency_key=e.idempotency_key,
            objective=e.objective,
        )
        self._count_live(e.tenant, 1)

    def _apply_admitted(self, e: JobAdmitted) -> None:
        job = self._job(e.job_id, e)
        self._require(job, frozenset({SUBMITTED}), e)
        job.state = QUEUED
        job.cap_at_admit_w = e.cap_w

    def _apply_scheduled(self, e: JobScheduled) -> None:
        job = self._job(e.job_id, e)
        self._require(job, frozenset({QUEUED, PREEMPTED}), e)
        job.state = RUNNING
        job.device = e.device
        if job.start_s is None:
            job.start_s = e.start_s

    def _apply_preempted(self, e: JobPreempted) -> None:
        job = self._job(e.job_id, e)
        self._require(job, frozenset({RUNNING}), e)
        job.state = PREEMPTED

    def _apply_migrated(self, e: JobMigrated) -> None:
        job = self._job(e.job_id, e)
        self._require(job, frozenset({RUNNING, PREEMPTED}), e)
        job.state = RUNNING
        job.device = e.dst

    def _apply_completed(self, e: JobCompleted) -> None:
        job = self._job(e.job_id, e)
        if job.state in TERMINAL_STATES:
            raise StoreIntegrityError(
                f"JobCompleted on terminal job {e.job_id!r} "
                f"(state {job.state!r}) — double completion"
            )
        self._require(job, frozenset({RUNNING}), e)
        job.state = DONE
        job.device = e.device
        job.start_s = e.start_s
        job.finish_s = e.finish_s
        job.energy_est_j = e.energy_est_j
        self.completed += 1
        self._count_live(job.tenant, -1)

    def _apply_rejected(self, e: JobRejected) -> None:
        job = self._job(e.job_id, e)
        if job.state in TERMINAL_STATES:
            raise StoreIntegrityError(
                f"JobRejected on terminal job {e.job_id!r} "
                f"(state {job.state!r})"
            )
        job.state = REJECTED
        job.detail = e.message or e.code
        self.rejected += 1
        self._count_live(job.tenant, -1)

    def _apply_requeued(self, e: JobRequeued) -> None:
        job = self._job(e.job_id, e)
        self._require(job, LIVE_STATES, e)
        job.state = QUEUED
        job.device = None

    def _apply_cap(self, e: CapChanged) -> None:
        if not (e.cap_w > 0 and math.isfinite(e.cap_w)):
            raise StoreIntegrityError(
                f"cap must be finite and positive, got {e.cap_w}"
            )
        self.cap_w = e.cap_w

    def _apply_clock(self, e: ClockAdvanced) -> None:
        if e.now_s < self.now_s:
            raise StoreIntegrityError(
                f"clock moved backwards: {self.now_s} -> {e.now_s}"
            )
        self.now_s = e.now_s

    _APPLY = {
        JobSubmitted: _apply_submitted,
        JobAdmitted: _apply_admitted,
        JobScheduled: _apply_scheduled,
        JobPreempted: _apply_preempted,
        JobMigrated: _apply_migrated,
        JobCompleted: _apply_completed,
        JobRejected: _apply_rejected,
        JobRequeued: _apply_requeued,
        CapChanged: _apply_cap,
        ClockAdvanced: _apply_clock,
    }

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def header(self) -> dict:
        """The non-job part of a snapshot: cap, clock and counters."""
        return {
            "cap_w": self.cap_w,
            "now_s": self.now_s,
            "completed": self.completed,
            "rejected": self.rejected,
        }

    def to_dict(self) -> dict:
        return {
            "jobs": {uid: job.as_dict() for uid, job in self.jobs.items()},
            "idempotency": dict(self.idempotency),
            **self.header(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StoreState":
        # Neither index is read from the payload: the idempotency index is
        # rebuilt from the jobs here, and construction recounts
        # ``tenant_live``.
        jobs = {
            uid: StoredJob(**job) for uid, job in payload.get("jobs", {}).items()
        }
        return cls(
            jobs=jobs,
            idempotency={
                job.idempotency_key: uid
                for uid, job in jobs.items()
                if job.idempotency_key is not None
            },
            cap_w=payload.get("cap_w"),
            now_s=float(payload.get("now_s", 0.0)),
            completed=int(payload.get("completed", 0)),
            rejected=int(payload.get("rejected", 0)),
        )

    def live_jobs(self) -> list[StoredJob]:
        return [j for j in self.jobs.values() if j.state in LIVE_STATES]


def fold(events, state: StoreState | None = None) -> StoreState:
    """Fold ``events`` onto ``state`` (a fresh one by default)."""
    out = state if state is not None else StoreState()
    for event in events:
        out.apply(event)
    return out


class JobStore:
    """State + log, with staged group commit and snapshot recovery.

    The write path is ``commit(*events)`` (validate + apply + stage)
    followed by ``flush()`` (durable append of the staged batch).  The
    service acknowledges a client only after the flush that covers its
    events, so an acknowledgement implies durability; a crash between
    commit and flush loses only never-acknowledged work.

    ``_dirty`` holds, in first-touched order, the ids of the jobs whose
    rows differ from the last saved snapshot: every job an applied event
    names, every job replayed from the log suffix, and every job of a
    snapshot loaded in the single-blob format.  A snapshot writes exactly
    those rows and clears the set once the write has returned.
    """

    def __init__(
        self,
        log: EventLog | None = None,
        *,
        snapshot_interval: int = 1024,
    ) -> None:
        self.log = log if log is not None else open_log(None)
        self.snapshot_interval = max(1, snapshot_interval)
        self.state = StoreState()
        self.applied_seq = 0
        self._pending: list[Event] = []
        self._since_snapshot = 0
        self._dirty: dict[str, None] = {}
        self.snapshot_failures = 0
        self._recover()

    @classmethod
    def open(
        cls,
        durable_dir: str | Path | None,
        shard: int = 0,
        *,
        snapshot_interval: int = 1024,
    ) -> "JobStore":
        """Open (and recover) the shard's store under ``durable_dir``."""
        return cls(
            open_log(durable_dir, shard), snapshot_interval=snapshot_interval
        )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        loaded = self.log.load_snapshot()
        if loaded is not None:
            self.applied_seq, payload = loaded
            self.state = StoreState.from_dict(payload)
            if payload.get("version") != SNAPSHOT_VERSION:
                # The next snapshot replaces the single-blob header, so it
                # must write every job out as a row.
                self._dirty = dict.fromkeys(self.state.jobs)
        for seq, event in self.log.replay(self.applied_seq):
            self.state.apply(event)
            self._touch(event)
            self.applied_seq = seq

    def _touch(self, event: Event) -> None:
        job_id = getattr(event, "job_id", None)
        if job_id is not None:
            self._dirty[job_id] = None

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def commit(self, *events: Event) -> None:
        """Validate and apply ``events``; stage them for the next flush."""
        for event in events:
            self.state.apply(event)
            self._touch(event)
            self._pending.append(event)

    def flush(self) -> None:
        """Group-commit every staged event; durable once this returns.

        The batch stays staged until the append returns, so a failed
        append leaves it for the retry.  A failed auto-snapshot does not
        raise: the batch is already durable, the failure is counted in
        ``snapshot_failures``, and the next flush tries again.
        """
        if self._pending:
            self.applied_seq = self.log.append_many(self._pending)
            self._since_snapshot += len(self._pending)
            self._pending = []
        # Auto-snapshots bound recovery replay time, which only matters
        # when the log survives the process; in-memory mode skips them.
        if self.log.durable and self._since_snapshot >= self.snapshot_interval:
            try:
                self._save_snapshot()
            except Exception:  # any backend error: the batch is already durable
                self.snapshot_failures += 1

    def snapshot(self) -> None:
        """Persist the current fold so recovery replays only a suffix."""
        self.flush()
        self._save_snapshot()

    def _save_snapshot(self) -> None:
        jobs = self.state.jobs
        payload = self.state.header()
        payload["jobs"] = {uid: jobs[uid].as_dict() for uid in self._dirty}
        self.log.save_snapshot(self.applied_seq, payload)
        # Cleared only once the write returned: a failed snapshot leaves
        # the set whole for the next attempt.
        self._dirty.clear()
        self._since_snapshot = 0

    def close(self) -> None:
        """Take a final snapshot and close the log, even if it fails."""
        try:
            self.snapshot()
        finally:
            self.log.close()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> StoredJob | None:
        return self.state.jobs.get(job_id)

    def idempotency_hit(self, key: str | None) -> StoredJob | None:
        """The job that already owns ``key``, if any."""
        if key is None:
            return None
        job_id = self.state.idempotency.get(key)
        return None if job_id is None else self.state.jobs.get(job_id)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self.state.jobs

    def __len__(self) -> int:
        return len(self.state.jobs)
