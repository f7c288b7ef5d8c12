"""Tests for the store-log verifier (repro.analysis.storecheck)."""

import pytest

from repro.analysis import (
    STORE_INVARIANTS,
    check_store_log,
    verify_store,
    verify_store_dir,
    verify_store_log,
)
from repro.analysis.storecheck import (
    INVARIANT_STORE_COMPLETION,
    INVARIANT_STORE_IDEMPOTENCY,
    INVARIANT_STORE_REPLAY,
    INVARIANT_STORE_TRANSITION,
)
from repro.errors import ScheduleInvariantError
from repro.store import (
    JobAdmitted,
    JobCompleted,
    JobScheduled,
    JobStore,
    JobSubmitted,
    MemoryEventLog,
)
from repro.store.store import fold


def _lifecycle(job_id, key=None):
    return [
        JobSubmitted(job_id=job_id, program="lud", idempotency_key=key),
        JobAdmitted(job_id=job_id, cap_w=30.0),
        JobScheduled(job_id=job_id, device="cpu", start_s=0.0),
        JobCompleted(job_id=job_id, device="cpu", start_s=0.0, finish_s=1.0),
    ]


def _log(events, snapshot_at=None):
    log = MemoryEventLog()
    log.append_many(events)
    if snapshot_at is not None:
        log.save_snapshot(snapshot_at, fold(events[:snapshot_at]).to_dict())
    return log


class TestCleanLogs:
    def test_empty_log_is_sound(self):
        assert verify_store_log(MemoryEventLog()) == []

    def test_clean_lifecycle_with_and_without_snapshot(self):
        assert verify_store_log(_log(_lifecycle("a"))) == []
        assert verify_store_log(_log(_lifecycle("a"), snapshot_at=2)) == []

    def test_check_store_log_passes_silently(self):
        check_store_log(_log(_lifecycle("a", key="k")))

    def test_live_store_matches_its_own_log(self, tmp_path):
        store = JobStore.open(tmp_path, 0)
        store.commit(*_lifecycle("a"))
        store.flush()
        # Staged-but-unflushed events count as part of the expected state.
        store.commit(JobSubmitted(job_id="b", program="cfd"))
        assert verify_store(store) == []
        store.close()
        assert verify_store_dir(tmp_path, 1) == []


class TestCorruptLogs:
    def test_double_completion_is_flagged_twice(self):
        events = _lifecycle("a") + [
            JobCompleted(job_id="a", device="cpu", start_s=0.0, finish_s=2.0)
        ]
        violations = verify_store_log(_log(events))
        kinds = {v.invariant for v in violations}
        assert INVARIANT_STORE_TRANSITION in kinds  # fold refuses it
        assert INVARIANT_STORE_COMPLETION in kinds  # raw recount sees it

    def test_contested_idempotency_key(self):
        events = [
            JobSubmitted(job_id="a", program="lud", idempotency_key="k"),
            JobSubmitted(job_id="b", program="lud", idempotency_key="k"),
        ]
        violations = verify_store_log(_log(events))
        assert any(
            v.invariant == INVARIANT_STORE_IDEMPOTENCY for v in violations
        )

    def test_orphan_event_for_unsubmitted_job(self):
        violations = verify_store_log(
            _log([JobAdmitted(job_id="ghost", cap_w=30.0)])
        )
        assert violations
        assert all(
            v.invariant == INVARIANT_STORE_TRANSITION for v in violations
        )

    def test_snapshot_ahead_of_truncated_log(self):
        # Simulates losing log rows while keeping a newer snapshot.
        log = _log(_lifecycle("a"))
        log.save_snapshot(99, fold(_lifecycle("a")).to_dict())
        violations = verify_store_log(log)
        assert [v.invariant for v in violations] == [INVARIANT_STORE_REPLAY]

    def test_snapshot_that_disagrees_with_the_log(self):
        # A snapshot claiming a different fold than the events it covers.
        log = _log(_lifecycle("a") + _lifecycle("b"))
        wrong = fold(_lifecycle("a")).to_dict()
        wrong["jobs"]["a"]["finish_s"] = 99.0
        wrong["now_s"] = 42.0
        log.save_snapshot(4, wrong)
        violations = verify_store_log(log)
        fields = {v.details.get("field") or v.details.get("job_id")
                  for v in violations
                  if v.invariant == INVARIANT_STORE_REPLAY}
        assert "now_s" in fields and "a" in fields

    def test_tampered_counter_in_snapshot(self):
        log = _log(_lifecycle("a"))
        state = fold(_lifecycle("a")).to_dict()
        state["completed"] = 7
        log.save_snapshot(4, state)
        violations = verify_store_log(log)
        assert any(
            v.invariant == INVARIANT_STORE_REPLAY
            and v.details.get("field") == "completed"
            for v in violations
        )

    def test_check_store_log_raises_with_violation_payload(self):
        log = _log([JobAdmitted(job_id="ghost", cap_w=30.0)])
        with pytest.raises(ScheduleInvariantError) as info:
            check_store_log(log, where="unit-test")
        assert info.value.where == "unit-test"
        assert info.value.violations
        assert all(
            v.invariant in STORE_INVARIANTS for v in info.value.violations
        )

    def test_out_of_band_state_mutation_is_caught(self, tmp_path):
        """The dynamic counterpart of REP008: poking the state behind the
        log's back makes the store diverge from its own fold."""
        store = JobStore.open(tmp_path, 0)
        store.commit(*_lifecycle("a"))
        store.flush()
        store.state.jobs["a"].finish_s = 123.0  # bypasses the event API
        violations = verify_store(store)
        assert any(
            v.invariant == INVARIANT_STORE_REPLAY
            and v.details.get("job_id") == "a"
            for v in violations
        )
        store.log.close()
