"""Incremental snapshots: a snapshot writes only the jobs changed since
the previous one, and recovery still equals the full fold.

The store keeps a dirty set of job ids (events applied, suffix replayed,
single-blob snapshot loaded) and hands the log only those rows plus a
small header.  These tests pin the three ways that can go wrong: a job
missing from the dirty set (its row goes stale), a failed write that
forgets the set, and a snapshot that still costs O(jobs).
"""

import dataclasses
import json
import sqlite3
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis import verify_store_dir
from repro.store import (
    JobAdmitted,
    JobCompleted,
    JobScheduled,
    JobStore,
    JobSubmitted,
    MemoryEventLog,
    SQLiteEventLog,
    encode_event,
)
from repro.store.log import SNAPSHOT_VERSION
from repro.store.store import StoreState, fold
from tests.store.test_replay_property import event_logs


def _lifecycle(job_id, key=None):
    return [
        JobSubmitted(job_id=job_id, program="lud", idempotency_key=key),
        JobAdmitted(job_id=job_id, cap_w=30.0),
        JobScheduled(job_id=job_id, device="cpu", start_s=0.0),
        JobCompleted(job_id=job_id, device="cpu", start_s=0.0, finish_s=1.0),
    ]


def _reopened(durable_dir) -> dict:
    """The state a fresh ``JobStore.open`` recovers, as a dict."""
    store = JobStore.open(durable_dir, 0)
    try:
        return store.state.to_dict()
    finally:
        store.log.close()


def _row_count(path) -> int:
    conn = sqlite3.connect(path)
    try:
        return conn.execute("SELECT COUNT(*) FROM snapshot_jobs").fetchone()[0]
    finally:
        conn.close()


@given(events=event_logs(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_flush_reopens_to_the_full_fold(events, data):
    """Random chunked flushes over a small snapshot interval, with random
    restarts: after every flush a fresh open equals ``fold(prefix)`` and
    the log verifies clean.  A restart recovers, replays the suffix, and
    the next snapshot must write the suffix's jobs — a suffix job missing
    from the dirty set leaves a stale row that a later reopen exposes."""
    interval = data.draw(st.integers(1, 7), label="snapshot interval")
    with tempfile.TemporaryDirectory() as durable:
        store = JobStore.open(durable, 0, snapshot_interval=interval)
        done = 0
        while done < len(events):
            size = data.draw(st.integers(1, 6), label="chunk")
            store.commit(*events[done:done + size])
            store.flush()
            done = min(done + size, len(events))
            if data.draw(st.booleans(), label="restart"):
                store.log.close()  # no shutdown snapshot: a crash
                store = JobStore.open(durable, 0, snapshot_interval=interval)
            assert _reopened(durable) == fold(events[:done]).to_dict()
            assert verify_store_dir(durable) == []
        store.close()
        assert _reopened(durable) == fold(events).to_dict()
        assert verify_store_dir(durable) == []


class TestSingleBlobCompatibility:
    """A shard file written before per-job rows existed: the whole state
    in one JSON value in ``snapshots``, and no ``snapshot_jobs`` table."""

    def _write_single_blob(self, path, events, snapshot_at):
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE events ("
            " seq INTEGER PRIMARY KEY AUTOINCREMENT, payload TEXT NOT NULL)"
        )
        conn.execute(
            "CREATE TABLE snapshots ("
            " id INTEGER PRIMARY KEY CHECK (id = 1),"
            " seq INTEGER NOT NULL, state TEXT NOT NULL)"
        )
        conn.executemany(
            "INSERT INTO events (payload) VALUES (?)",
            [(encode_event(e),) for e in events],
        )
        blob = json.dumps(fold(events[:snapshot_at]).to_dict())
        conn.execute(
            "INSERT INTO snapshots (id, seq, state) VALUES (1, ?, ?)",
            (snapshot_at, blob),
        )
        conn.commit()
        conn.close()

    def test_opens_and_next_snapshot_rewrites_every_job(self, tmp_path):
        events = (
            _lifecycle("a", key="ka")
            + _lifecycle("b")
            + [JobSubmitted(job_id="c", program="cfd", idempotency_key="kc")]
        )
        path = tmp_path / "shard-0.sqlite"
        # The snapshot covers a and b; the suffix submits c.
        self._write_single_blob(path, events, snapshot_at=8)

        store = JobStore.open(tmp_path, 0)
        assert store.state.to_dict() == fold(events).to_dict()
        assert store.idempotency_hit("ka").job_id == "a"
        late = JobAdmitted(job_id="c", cap_w=30.0)
        store.commit(late)
        store.snapshot()
        assert _row_count(path) == 3  # a and b were never touched again
        store.log.close()

        assert _reopened(tmp_path) == fold(events + [late]).to_dict()
        assert verify_store_dir(tmp_path) == []

    def test_snapshot_payload_reports_the_format(self, tmp_path):
        events = _lifecycle("a")
        self._write_single_blob(tmp_path / "shard-0.sqlite", events, 4)
        log = SQLiteEventLog(tmp_path / "shard-0.sqlite")
        seq, payload = log.load_snapshot()
        assert seq == 4 and "version" not in payload
        store = JobStore(log)
        store.snapshot()
        seq, payload = log.load_snapshot()
        assert payload["version"] == SNAPSHOT_VERSION
        assert "idempotency" not in payload
        assert StoreState.from_dict(payload).to_dict() == fold(events).to_dict()
        log.close()


class _FailOnceLog(MemoryEventLog):
    """Memory log whose next ``save_snapshot`` raises when armed."""

    def __init__(self) -> None:
        super().__init__()
        self.armed = False

    def save_snapshot(self, seq, state):
        if self.armed:
            self.armed = False
            raise OSError("disk full")
        super().save_snapshot(seq, state)


class _CountingLog(MemoryEventLog):
    """Durable-acting memory log recording the job rows of each snapshot."""

    durable = True

    def __init__(self) -> None:
        super().__init__()
        self.rows_written: list[int] = []

    def save_snapshot(self, seq, state):
        self.rows_written.append(len(state["jobs"]))
        super().save_snapshot(seq, state)


class _FailingAppendLog(MemoryEventLog):
    """Memory log whose next ``append_many`` raises when armed."""

    def __init__(self) -> None:
        super().__init__()
        self.armed = False

    def append_many(self, events):
        if self.armed:
            self.armed = False
            raise OSError("disk full")
        return super().append_many(events)


class _FailingSnapshotLog(MemoryEventLog):
    """Durable-acting memory log whose ``save_snapshot`` raises while
    ``failing`` is set."""

    durable = True

    def __init__(self) -> None:
        super().__init__()
        self.failing = True

    def save_snapshot(self, seq, state):
        if self.failing:
            raise OSError("disk full")
        super().save_snapshot(seq, state)


class TestFailedAndBoundedWrites:
    def test_failed_snapshot_keeps_the_dirty_set(self):
        log = _FailOnceLog()
        store = JobStore(log)
        events = _lifecycle("a")
        store.commit(*events)
        store.snapshot()
        later = _lifecycle("b") + [JobSubmitted(job_id="c", program="srad")]
        store.commit(*later)
        log.armed = True
        with pytest.raises(OSError):
            store.snapshot()
        store.snapshot()  # the retry must still write b and c
        assert JobStore(log).state.to_dict() == fold(events + later).to_dict()

    def test_failed_sqlite_write_leaves_the_previous_snapshot(self, tmp_path):
        log = SQLiteEventLog(tmp_path / "shard-0.sqlite")
        events = _lifecycle("a")
        log.append_many(events)
        good = fold(events).to_dict()
        log.save_snapshot(4, good)
        changed = dict(good["jobs"]["a"], finish_s=9.0)
        # The second row cannot bind, after the first has been upserted.
        with pytest.raises(sqlite3.Error):
            log.save_snapshot(5, {"jobs": {"a": changed, ("x",): {}}})
        seq, payload = log.load_snapshot()
        assert seq == 4
        assert payload["jobs"] == good["jobs"]
        log.close()

    def test_failed_append_keeps_the_staged_batch(self):
        from repro.analysis import verify_store

        log = _FailingAppendLog()
        store = JobStore(log)
        events = _lifecycle("a")
        store.commit(*events)
        log.armed = True
        with pytest.raises(OSError):
            store.flush()
        assert log.last_seq == 0
        assert verify_store(store) == []
        store.flush()  # the retry writes the batch exactly once
        assert [e for _, e in log.replay()] == events
        assert store.applied_seq == len(events)
        store.flush()
        assert log.last_seq == len(events)
        assert verify_store(store) == []

    def test_failed_auto_snapshot_does_not_fail_the_flush(self):
        log = _FailingSnapshotLog()
        store = JobStore(log, snapshot_interval=2)
        first = _lifecycle("a")
        store.commit(*first)
        store.flush()  # durable; the failed snapshot is only counted
        assert log.last_seq == len(first)
        assert store.snapshot_failures == 1
        assert log.load_snapshot() is None
        second = _lifecycle("b")
        store.commit(*second)
        store.flush()  # retried, and failing again, at the next flush
        assert log.last_seq == len(first) + len(second)
        assert store.snapshot_failures == 2
        log.failing = False
        store.flush()  # nothing staged; the pending snapshot now lands
        assert store.snapshot_failures == 2
        seq, _ = log.load_snapshot()
        assert seq == len(first) + len(second)
        assert JobStore(log).state.to_dict() == fold(first + second).to_dict()

    def test_explicit_snapshot_and_close_still_raise(self):
        log = _FailingSnapshotLog()
        store = JobStore(log, snapshot_interval=10**9)
        store.commit(*_lifecycle("a"))
        with pytest.raises(OSError):
            store.snapshot()
        with pytest.raises(OSError):
            store.close()
        assert log.last_seq == 4

    @pytest.mark.parametrize("n_jobs", [8, 600])
    @pytest.mark.parametrize("k", [1, 3])
    def test_snapshot_writes_at_most_the_changed_jobs(self, n_jobs, k):
        log = _CountingLog()
        store = JobStore(log, snapshot_interval=10**9)
        for i in range(n_jobs):
            store.commit(
                JobSubmitted(job_id=f"j{i}", program="lud"),
                JobAdmitted(job_id=f"j{i}", cap_w=30.0),
            )
        store.snapshot()
        assert log.rows_written == [n_jobs]
        # k events on k existing jobs: k rows, whatever n_jobs is.
        store.commit(*(
            JobScheduled(job_id=f"j{i}", device="cpu", start_s=0.0)
            for i in range(k)
        ))
        store.snapshot()
        assert log.rows_written[-1] <= k
        # Events that name no job write no job rows at all.
        store.snapshot()
        assert log.rows_written[-1] == 0
        assert JobStore(log).state.to_dict() == store.state.to_dict()


def test_as_dict_matches_dataclasses_asdict_byte_for_byte():
    state = fold(_lifecycle("a", key="k") + [
        JobSubmitted(job_id="b", program="cfd", tenant="acme", priority=2),
    ])
    for job in state.jobs.values():
        assert json.dumps(job.as_dict()) == json.dumps(dataclasses.asdict(job))
