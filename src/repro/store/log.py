"""Append-only event logs: durable (SQLite WAL) and in-memory.

Both backends share one contract:

* ``append_many(events)`` is atomic — after it returns, every event in the
  batch survives ``kill -9`` (group commit: the service acknowledges a
  client only after the batch commits);
* ``replay(after_seq)`` yields ``(seq, event)`` in append order;
* ``save_snapshot(seq, state)`` / ``load_snapshot()`` persist a fold of
  the log prefix up to ``seq``, so recovery replays only the suffix.

A snapshot is stored as one row per job plus a small header (cap, clock,
counters and the format version :data:`SNAPSHOT_VERSION`).
``save_snapshot`` upserts the rows it is given under ``state["jobs"]``
and replaces the header, atomically; rows it is not given keep their
last saved value.  A fold never drops a job, so passing only the jobs
changed since the previous snapshot — what :class:`~repro.store.JobStore`
does — writes O(changed jobs), and passing every job writes a full
snapshot.  ``load_snapshot`` merges the header with every row and
returns the complete state (header fields plus ``"jobs"``) that
``StoreState.from_dict`` reads.  A header without a version is the older
single-blob format (the whole state, jobs included, in one JSON value):
it loads as is, and the store rewrites every job into rows at its next
snapshot.

The SQLite backend runs in WAL mode with ``synchronous=NORMAL``: commits
are durable against process death (the failure mode the service defends
against — the e2e suite SIGKILLs it mid-burst) without paying an fsync
per acknowledgement.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from pathlib import Path
from collections.abc import Iterable, Iterator

from repro.store.events import Event, decode_event, encode_event

#: Snapshot format: header plus one row per job.  Headers written before
#: the per-job rows existed carry no version.
SNAPSHOT_VERSION = 2


def _split_snapshot(state: dict) -> tuple[dict, dict]:
    """``(header, rows)``: the versioned header and the job rows."""
    header = {k: v for k, v in state.items() if k != "jobs"}
    header["version"] = SNAPSHOT_VERSION
    return header, state.get("jobs", {})


def _merge_snapshot(header: dict, rows: Iterable[tuple[str, dict]]) -> dict:
    """The full state dict: a versioned header plus every job row."""
    if header.get("version") != SNAPSHOT_VERSION:
        return header  # single-blob format: the jobs are in the header
    return {**header, "jobs": dict(rows)}


class EventLog:
    """Interface shared by the durable and in-memory backends."""

    #: Whether rows survive process death.  The store only *auto*-snapshots
    #: durable logs: a snapshot of an in-memory log cannot outlive the
    #: process, so taking one every N events is pure overhead on the
    #: submission path (explicit ``snapshot()`` calls still work).
    durable = False

    def append(self, event: Event) -> int:
        return self.append_many([event])

    def append_many(self, events: Iterable[Event]) -> int:
        raise NotImplementedError

    def replay(self, after_seq: int = 0) -> Iterator[tuple[int, Event]]:
        raise NotImplementedError

    @property
    def last_seq(self) -> int:
        raise NotImplementedError

    def save_snapshot(self, seq: int, state: dict) -> None:
        raise NotImplementedError

    def load_snapshot(self) -> tuple[int, dict] | None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class MemoryEventLog(EventLog):
    """Ephemeral log for tests and non-durable daemons.

    Same semantics as the SQLite backend minus persistence, so one code
    path in the store serves both modes.
    """

    def __init__(self) -> None:
        self._events: list[Event] = []
        self._snapshot: tuple[int, dict] | None = None
        self._rows: dict[str, dict] = {}

    def append_many(self, events: Iterable[Event]) -> int:
        self._events.extend(events)
        return len(self._events)

    def replay(self, after_seq: int = 0) -> Iterator[tuple[int, Event]]:
        for seq in range(after_seq, len(self._events)):
            yield seq + 1, self._events[seq]

    @property
    def last_seq(self) -> int:
        return len(self._events)

    def save_snapshot(self, seq: int, state: dict) -> None:
        # Round-trip through JSON so both backends impose the same
        # "snapshot must be JSON-serializable" contract.
        header, rows = _split_snapshot(json.loads(json.dumps(state)))
        self._rows.update(rows)
        self._snapshot = (seq, header)

    def load_snapshot(self) -> tuple[int, dict] | None:
        if self._snapshot is None:
            return None
        seq, header = self._snapshot
        state = _merge_snapshot(header, self._rows.items())
        return seq, json.loads(json.dumps(state))


class SQLiteEventLog(EventLog):
    """Durable log: one SQLite file, WAL journal, group commit."""

    durable = True

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # The service tier serializes writers behind its own lock, but the
        # threaded legacy server may hand requests to the state from any
        # worker thread — let the connection cross threads and serialize
        # here.
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._lock = threading.Lock()
        cur = self._conn.cursor()
        cur.execute("PRAGMA journal_mode=WAL")
        cur.execute("PRAGMA synchronous=NORMAL")
        cur.execute(
            "CREATE TABLE IF NOT EXISTS events ("
            " seq INTEGER PRIMARY KEY AUTOINCREMENT,"
            " payload TEXT NOT NULL)"
        )
        cur.execute(
            "CREATE TABLE IF NOT EXISTS snapshots ("
            " id INTEGER PRIMARY KEY CHECK (id = 1),"
            " seq INTEGER NOT NULL,"
            " state TEXT NOT NULL)"
        )
        cur.execute(
            "CREATE TABLE IF NOT EXISTS snapshot_jobs ("
            " job_id TEXT PRIMARY KEY,"
            " row TEXT NOT NULL)"
        )
        self._conn.commit()

    def append_many(self, events: Iterable[Event]) -> int:
        rows = [(encode_event(e),) for e in events]
        with self._lock:
            cur = self._conn.cursor()
            cur.executemany("INSERT INTO events (payload) VALUES (?)", rows)
            self._conn.commit()
            # lastrowid is unspecified after executemany; ask the table.
            row = self._conn.execute("SELECT MAX(seq) FROM events").fetchone()
            return int(row[0] or 0)

    def replay(self, after_seq: int = 0) -> Iterator[tuple[int, Event]]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT seq, payload FROM events WHERE seq > ? ORDER BY seq",
                (after_seq,),
            ).fetchall()
        for seq, payload in rows:
            yield int(seq), decode_event(payload)

    @property
    def last_seq(self) -> int:
        with self._lock:
            row = self._conn.execute("SELECT MAX(seq) FROM events").fetchone()
        return int(row[0] or 0)

    def save_snapshot(self, seq: int, state: dict) -> None:
        header, rows = _split_snapshot(state)
        blob = json.dumps(header, separators=(",", ":"))
        encoded = [
            (job_id, json.dumps(row, separators=(",", ":")))
            for job_id, row in rows.items()
        ]
        # One transaction: a crash (or an error) leaves the previous
        # snapshot whole.  ``DO UPDATE`` keeps a row's rowid, so rows load
        # back in first-saved (submission) order.
        with self._lock, self._conn:
            self._conn.executemany(
                "INSERT INTO snapshot_jobs (job_id, row) VALUES (?, ?)"
                " ON CONFLICT (job_id) DO UPDATE SET row=excluded.row",
                encoded,
            )
            self._conn.execute(
                "INSERT INTO snapshots (id, seq, state) VALUES (1, ?, ?)"
                " ON CONFLICT (id) DO UPDATE SET seq=excluded.seq,"
                " state=excluded.state",
                (seq, blob),
            )

    def load_snapshot(self) -> tuple[int, dict] | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT seq, state FROM snapshots WHERE id = 1"
            ).fetchone()
            if row is None:
                return None
            jobs = self._conn.execute(
                "SELECT job_id, row FROM snapshot_jobs ORDER BY rowid"
            ).fetchall()
        # One decode for all rows: the decoder then shares each field-name
        # string across rows instead of allocating one per row.
        decoded = json.loads("[" + ",".join(blob for _, blob in jobs) + "]")
        rows = zip((job_id for job_id, _ in jobs), decoded)
        return int(row[0]), _merge_snapshot(json.loads(row[1]), rows)

    def close(self) -> None:
        with self._lock:
            self._conn.commit()
            self._conn.close()


def open_log(durable_dir: str | Path | None, shard: int = 0) -> EventLog:
    """One log per shard: ``<dir>/shard-<n>.sqlite``, or in-memory."""
    if durable_dir is None:
        return MemoryEventLog()
    return SQLiteEventLog(Path(durable_dir) / f"shard-{shard}.sqlite")
