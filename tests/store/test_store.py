"""Unit tests for the durable job store: fold, log, recovery, idempotency."""

import sqlite3

import pytest

from repro.store import (
    CapChanged,
    ClockAdvanced,
    JobAdmitted,
    JobCompleted,
    JobMigrated,
    JobPreempted,
    JobRejected,
    JobRequeued,
    JobScheduled,
    JobStore,
    JobSubmitted,
    MemoryEventLog,
    SQLiteEventLog,
    StoreIntegrityError,
    decode_event,
    encode_event,
)
from repro.store.store import DONE, QUEUED, REJECTED, RUNNING, StoreState, fold


def _lifecycle(job_id="j1", finish_s=2.0):
    """A full submitted -> done event chain for one job."""
    return [
        JobSubmitted(job_id=job_id, program="lud", arrival_s=0.0),
        JobAdmitted(job_id=job_id, cap_w=30.0),
        JobScheduled(job_id=job_id, device="cpu", start_s=0.5),
        JobCompleted(
            job_id=job_id, device="cpu", start_s=0.5, finish_s=finish_s
        ),
    ]


class TestFold:
    def test_full_lifecycle_lands_in_done(self):
        state = fold(_lifecycle())
        job = state.jobs["j1"]
        assert job.state == DONE
        assert job.device == "cpu"
        assert job.finish_s == 2.0
        assert state.completed == 1

    def test_preempt_migrate_resume_chain(self):
        events = [
            JobSubmitted(job_id="j1", program="srad"),
            JobAdmitted(job_id="j1", cap_w=30.0),
            JobScheduled(job_id="j1", device="cpu", start_s=0.0),
            JobPreempted(job_id="j1", device="cpu", at_s=1.0),
            JobMigrated(job_id="j1", src="cpu", dst="gpu", at_s=1.2),
            JobCompleted(job_id="j1", device="gpu", start_s=0.0, finish_s=3.0),
        ]
        state = fold(events)
        assert state.jobs["j1"].state == DONE
        assert state.jobs["j1"].device == "gpu"

    def test_requeue_returns_interrupted_job_to_queued(self):
        events = _lifecycle()[:3] + [JobRequeued(job_id="j1")]
        state = fold(events)
        assert state.jobs["j1"].state == QUEUED
        assert state.jobs["j1"].device is None
        # The job can be scheduled again afterwards.
        state.apply(JobScheduled(job_id="j1", device="gpu", start_s=4.0))
        assert state.jobs["j1"].state == RUNNING

    def test_rejection_is_terminal_and_counted(self):
        state = fold([
            JobSubmitted(job_id="j1", program="lud"),
            JobRejected(job_id="j1", code="quota", message="tenant over quota"),
        ])
        assert state.jobs["j1"].state == REJECTED
        assert state.jobs["j1"].detail == "tenant over quota"
        assert state.rejected == 1

    def test_cap_and_clock_fold(self):
        state = fold([CapChanged(cap_w=12.0), ClockAdvanced(now_s=3.0)])
        assert state.cap_w == 12.0
        assert state.now_s == 3.0


class TestFoldRejectsIllegalTransitions:
    def test_double_submission_raises(self):
        state = fold([JobSubmitted(job_id="j1", program="lud")])
        with pytest.raises(StoreIntegrityError, match="duplicate"):
            state.apply(JobSubmitted(job_id="j1", program="lud"))

    def test_double_completion_raises(self):
        state = fold(_lifecycle())
        with pytest.raises(StoreIntegrityError, match="double completion"):
            state.apply(
                JobCompleted(job_id="j1", device="cpu", start_s=0.5, finish_s=9.0)
            )

    def test_event_for_unknown_job_raises(self):
        with pytest.raises(StoreIntegrityError, match="unknown job"):
            fold([JobAdmitted(job_id="ghost", cap_w=30.0)])

    def test_schedule_before_admission_raises(self):
        state = fold([JobSubmitted(job_id="j1", program="lud")])
        with pytest.raises(StoreIntegrityError, match="expected one of"):
            state.apply(JobScheduled(job_id="j1", device="cpu", start_s=0.0))

    def test_completion_without_running_raises(self):
        state = fold(_lifecycle()[:2])  # submitted + admitted
        with pytest.raises(StoreIntegrityError):
            state.apply(
                JobCompleted(job_id="j1", device="cpu", start_s=0.0, finish_s=1.0)
            )

    def test_clock_moving_backwards_raises(self):
        state = fold([ClockAdvanced(now_s=5.0)])
        with pytest.raises(StoreIntegrityError, match="backwards"):
            state.apply(ClockAdvanced(now_s=4.0))

    def test_stolen_idempotency_key_raises(self):
        state = fold([
            JobSubmitted(job_id="a", program="lud", idempotency_key="k"),
        ])
        with pytest.raises(StoreIntegrityError, match="already owned"):
            state.apply(
                JobSubmitted(job_id="b", program="lud", idempotency_key="k")
            )

    @pytest.mark.parametrize("cap_w", [float("nan"), float("inf"), 0.0, -1.0])
    def test_cap_that_is_not_finite_and_positive_raises(self, cap_w):
        state = fold([CapChanged(cap_w=12.0)])
        with pytest.raises(StoreIntegrityError, match="finite and positive"):
            state.apply(CapChanged(cap_w=cap_w))
        assert state.cap_w == 12.0


class TestEventCodec:
    @pytest.mark.parametrize("event", [
        JobSubmitted(job_id="j", program="lud", tenant="t", priority=3,
                     idempotency_key="k", objective="energy"),
        JobAdmitted(job_id="j", cap_w=30.0),
        JobScheduled(job_id="j", device="gpu", start_s=1.0),
        JobPreempted(job_id="j", device="gpu", at_s=2.0),
        JobMigrated(job_id="j", src="gpu", dst="cpu", at_s=2.5),
        JobCompleted(job_id="j", device="cpu", start_s=1.0, finish_s=4.0,
                     energy_est_j=12.5),
        JobRejected(job_id="j", code="backpressure"),
        JobRequeued(job_id="j"),
        CapChanged(cap_w=12.0, at_s=6.0),
        ClockAdvanced(now_s=7.0),
    ])
    def test_round_trip(self, event):
        assert decode_event(encode_event(event)) == event


class TestJobStoreDurability:
    def test_ack_implies_durability_across_reopen(self, tmp_path):
        store = JobStore.open(tmp_path, 0)
        store.commit(*_lifecycle("a"))
        store.commit(JobSubmitted(job_id="b", program="cfd"))
        store.flush()
        # No clean close: simulate the process dying after the flush.
        store.log.close()

        recovered = JobStore.open(tmp_path, 0)
        assert recovered.state.jobs["a"].state == DONE
        assert recovered.state.jobs["b"].state == "submitted"
        assert recovered.state.completed == 1

    def test_unflushed_events_are_lost_not_corrupting(self, tmp_path):
        store = JobStore.open(tmp_path, 0)
        store.commit(JobSubmitted(job_id="a", program="lud"))
        store.flush()
        store.commit(JobSubmitted(job_id="b", program="cfd"))  # never flushed
        store.log.close()

        recovered = JobStore.open(tmp_path, 0)
        assert "a" in recovered
        assert "b" not in recovered

    def test_snapshot_plus_suffix_recovery(self, tmp_path):
        store = JobStore.open(tmp_path, 0)
        store.commit(*_lifecycle("a"))
        store.snapshot()
        store.commit(*_lifecycle("b", finish_s=3.0))
        store.flush()
        store.log.close()

        recovered = JobStore.open(tmp_path, 0)
        assert recovered.state.jobs["a"].state == DONE
        assert recovered.state.jobs["b"].state == DONE
        assert recovered.state.completed == 2

    def test_automatic_snapshot_after_interval(self, tmp_path):
        store = JobStore.open(tmp_path, 0, snapshot_interval=4)
        store.commit(*_lifecycle("a"))
        store.flush()  # 4 events >= interval -> snapshot taken
        assert store.log.load_snapshot() is not None
        seq, payload = store.log.load_snapshot()
        assert seq == 4
        assert payload["jobs"]["a"]["state"] == DONE

    def test_shards_use_separate_files(self, tmp_path):
        s0 = JobStore.open(tmp_path, 0)
        s1 = JobStore.open(tmp_path, 1)
        s0.commit(JobSubmitted(job_id="a", program="lud"))
        s0.flush()
        s1.commit(JobSubmitted(job_id="b", program="cfd"))
        s1.flush()
        s0.close()
        s1.close()
        assert (tmp_path / "shard-0.sqlite").exists()
        assert (tmp_path / "shard-1.sqlite").exists()
        assert "b" not in JobStore.open(tmp_path, 0)
        assert "a" not in JobStore.open(tmp_path, 1)

    def test_idempotency_hit_lookup(self):
        store = JobStore()
        store.commit(
            JobSubmitted(job_id="a", program="lud", idempotency_key="k1")
        )
        store.flush()
        hit = store.idempotency_hit("k1")
        assert hit is not None and hit.job_id == "a"
        assert store.idempotency_hit("other") is None
        assert store.idempotency_hit(None) is None

    def test_memory_log_round_trips_snapshot_contract(self):
        log = MemoryEventLog()
        store = JobStore(log)
        store.commit(JobSubmitted(job_id="a", program="lud"))
        store.snapshot()
        seq, payload = log.load_snapshot()
        assert seq == log.last_seq == 1
        # The snapshot must be JSON-round-trippable (same contract as SQLite).
        assert payload["jobs"]["a"]["program"] == "lud"

    def test_sqlite_log_replay_order_and_seq(self, tmp_path):
        log = SQLiteEventLog(tmp_path / "log.sqlite")
        events = _lifecycle("a")
        assert log.append_many(events) == 4
        replayed = list(log.replay(0))
        assert [seq for seq, _ in replayed] == [1, 2, 3, 4]
        assert [e for _, e in replayed] == events
        assert list(log.replay(3)) == [(4, events[3])]
        log.close()

    def test_close_closes_log_when_final_snapshot_fails(self, tmp_path):
        class FailingSnapshotLog(SQLiteEventLog):
            def save_snapshot(self, seq, state):
                raise OSError("disk full")

        log = FailingSnapshotLog(tmp_path / "log.sqlite")
        store = JobStore(log)
        store.commit(JobSubmitted(job_id="a", program="lud"))
        with pytest.raises(OSError, match="disk full"):
            store.close()
        # The submission was flushed before the snapshot failed ...
        assert store.applied_seq == 1
        # ... and the connection is closed all the same.
        with pytest.raises(sqlite3.ProgrammingError):
            log._conn.execute("select 1")

    def test_corrupt_suffix_refuses_to_fold(self, tmp_path):
        log = SQLiteEventLog(tmp_path / "shard-0.sqlite")
        log.append_many([
            JobSubmitted(job_id="a", program="lud"),
            JobAdmitted(job_id="a", cap_w=30.0),
            # Fabricated out-of-lifecycle row, as if a writer bypassed the
            # store's validation: completion without ever running.
            JobCompleted(job_id="a", device="cpu", start_s=0.0, finish_s=1.0),
            JobCompleted(job_id="a", device="cpu", start_s=0.0, finish_s=2.0),
        ])
        log.close()
        with pytest.raises(StoreIntegrityError):
            JobStore.open(tmp_path.as_posix(), 0)


class TestStateSnapshotCodec:
    def test_to_dict_from_dict_round_trip(self):
        state = fold(
            _lifecycle("a")
            + [
                JobSubmitted(job_id="b", program="cfd", tenant="acme",
                             priority=2, idempotency_key="k"),
                JobRejected(job_id="b", code="quota"),
                CapChanged(cap_w=12.0),
                ClockAdvanced(now_s=9.0),
            ]
        )
        clone = StoreState.from_dict(state.to_dict())
        assert clone.to_dict() == state.to_dict()
        assert clone.jobs["b"].idempotency_key == "k"
        assert clone.cap_w == 12.0 and clone.now_s == 9.0

    def test_live_jobs_excludes_terminal(self):
        state = fold(
            _lifecycle("a") + [JobSubmitted(job_id="b", program="cfd")]
        )
        assert [j.job_id for j in state.live_jobs()] == ["b"]
