"""Durable job store: append-only event log, snapshots, crash recovery.

The store is the service tier's source of truth.  Every job state
transition (submitted -> admitted -> scheduled -> preempted/migrated ->
completed/rejected) is a typed event (:mod:`repro.store.events`) appended
to a replayable log (:mod:`repro.store.log`) *before* the client is
acknowledged; in-memory state is nothing but a fold over that log
(:mod:`repro.store.store`), so a ``kill -9`` at any instant loses at most
unacknowledged work.  Recovery = load the last snapshot, replay the
suffix.  Snapshots are incremental: one row per job plus a small
versioned header, and each snapshot writes only the jobs changed since
the previous one (:mod:`repro.store.log` has the format).
"""

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
    decode_event,
    encode_event,
)
from repro.store.log import EventLog, MemoryEventLog, SQLiteEventLog, open_log
from repro.store.store import (
    JobStore,
    StoreIntegrityError,
    StoredJob,
    StoreState,
)

__all__ = [
    "CapChanged",
    "ClockAdvanced",
    "Event",
    "EventLog",
    "JobAdmitted",
    "JobCompleted",
    "JobMigrated",
    "JobPreempted",
    "JobRejected",
    "JobRequeued",
    "JobScheduled",
    "JobStore",
    "JobSubmitted",
    "MemoryEventLog",
    "SQLiteEventLog",
    "StoreIntegrityError",
    "StoreState",
    "StoredJob",
    "decode_event",
    "encode_event",
    "open_log",
]
