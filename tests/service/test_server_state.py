"""ServiceState over the store fold, its only job table (no sockets).

Queue depth comes from the scheduling session, per-tenant live counts
from the fold's ``tenant_live`` index, and ``held`` from the backlog.
The listing tests pin three deliberate semantics of the ``jobs``
endpoint: submission order (also after a restart), the acknowledged
arrival (also after a backlog promotion), and the store's rejection
message for a job rejected during recovery.
"""

import math

import pytest

from repro.service import protocol
from repro.service.admission import TenantPolicy
from repro.service.server import ServiceState
from repro.core.fleet import Fleet
from repro.service.fleet import FleetSession
from repro.store import events as ev
from repro.store.log import MemoryEventLog
from repro.store.store import JobStore


def _state(log=None, **kwargs):
    store = JobStore(log) if log is not None else None
    return ServiceState(FleetSession(Fleet.single(15.0)), store=store, **kwargs)


def _submit(state, uid, program="cfd", **kwargs):
    return state.handle(
        protocol.SubmitRequest(program=program, uid=uid, **kwargs)
    )


def _depth(state):
    return state.handle(protocol.StatusRequest()).queue_depth


def _jobs(state):
    return state.handle(protocol.JobsRequest()).jobs


def _job(state, uid):
    (row,) = [j for j in _jobs(state) if j["job_id"] == uid]
    return row


def _metrics(state):
    return state.handle(protocol.MetricsRequest()).metrics


class TestQueueBound:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            ServiceState(FleetSession(Fleet.single(15.0)), queue_capacity=0)

    def test_backpressure_at_capacity(self):
        state = _state(queue_capacity=1)
        assert _submit(state, "a").state == "queued"
        reply = _submit(state, "b")
        assert isinstance(reply, protocol.RejectionResponse)
        assert reply.code == "backpressure"
        assert "(1/1)" in reply.message
        # Transient: nothing logged, so the uid stays reusable.
        assert "b" not in state.store
        assert _metrics(state)["queue_headroom"] == 0.0

    def test_backpressure_checked_before_feasibility(self, monkeypatch):
        # A full queue must not pay for profiling: the cheap check wins.
        state = _state(queue_capacity=1)
        _submit(state, "a")

        def explode(job):
            raise AssertionError("feasibility must not run under backpressure")

        monkeypatch.setattr(state.session, "admissible", explode)
        assert _submit(state, "b", program="lud").code == "backpressure"

    def test_started_job_frees_a_slot(self):
        state = _state(queue_capacity=1)
        _submit(state, "a")
        assert _depth(state) == 1
        state.handle(protocol.AdvanceRequest(until_s=0.5))
        assert _job(state, "a")["state"] == "running"
        assert _depth(state) == 0
        assert _submit(state, "b").state == "queued"

    def test_late_rejection_lowers_depth(self):
        state = _state()
        _submit(state, "a")
        _submit(state, "b", program="lud")
        assert _depth(state) == 2
        state.handle(protocol.SetCapRequest(cap_w=1.0))
        reply = state.handle(protocol.AdvanceRequest(until_s=0.1))
        assert {r.job_id for r in reply.rejections} == {"a", "b"}
        assert _depth(state) == 0
        for uid in ("a", "b"):
            row = _job(state, uid)
            assert row["state"] == "rejected"
            assert row["detail"].startswith("cap change to 1.0 W")
        assert not any(k.startswith("tenant_live_") for k in _metrics(state))


class TestUidsAndCaps:
    def test_infeasible_cap_burns_the_uid(self):
        state = _state()
        state.handle(protocol.SetCapRequest(cap_w=1.0))
        reply = _submit(state, "a")
        assert reply.code == "infeasible_cap"
        assert _job(state, "a")["state"] == "rejected"
        assert _job(state, "a")["detail"] == reply.message
        state.handle(protocol.SetCapRequest(cap_w=15.0))
        assert _submit(state, "a").code == "duplicate"

    @pytest.mark.parametrize("cap_w", [math.nan, math.inf, 0.0])
    def test_bad_cap_is_refused_and_never_logged(self, cap_w):
        state = _state()
        reply = state.handle(protocol.SetCapRequest(cap_w=cap_w))
        assert isinstance(reply, protocol.ErrorResponse)
        assert reply.code == "bad_request"
        assert list(state.store.log.replay(0)) == []
        assert state.session.cap_w == 15.0
        assert _submit(state, "a").state == "queued"


class TestTenantQuota:
    def test_quota_reads_the_fold_index(self):
        state = _state(tenant_policy=TenantPolicy(quota=1))
        assert _submit(state, "a", tenant="x").state == "queued"
        reply = _submit(state, "b", tenant="x")
        assert reply.code == "tenant_quota"
        assert "b" not in state.store
        assert _submit(state, "c", tenant="y").state == "queued"
        metrics = _metrics(state)
        assert metrics["tenant_live_x"] == 1.0
        assert metrics["tenant_live_y"] == 1.0
        state.handle(protocol.DrainRequest())
        assert state.store.state.tenant_live == {}
        assert _submit(state, "b", tenant="x").state == "queued"

    def test_quota_holds_across_a_restart(self):
        log = MemoryEventLog()
        first = _state(log, tenant_policy=TenantPolicy(quota=1))
        _submit(first, "a", tenant="x")
        second = _state(log, tenant_policy=TenantPolicy(quota=1))
        assert second.store.state.tenant_live == {"x": 1}
        assert _submit(second, "b", tenant="x").code == "tenant_quota"


class TestJobsListing:
    def test_listing_is_submission_order_across_a_restart(self):
        log = MemoryEventLog()
        first = _state(log)
        first.handle(protocol.SetCapRequest(cap_w=1.0))
        _submit(first, "refused")
        first.handle(protocol.SetCapRequest(cap_w=15.0))
        _submit(first, "late", arrival_s=100.0)
        _submit(first, "early", program="lud", arrival_s=0.0)
        order = ["refused", "late", "early"]
        assert [j["job_id"] for j in _jobs(first)] == order
        assert set(_jobs(first)[0]) == {
            "job_id", "program", "scale", "state", "arrival_s", "detail",
        }
        second = _state(log)
        assert [j["job_id"] for j in _jobs(second)] == order
        assert _jobs(second) == _jobs(first)

    def test_promoted_job_keeps_its_acknowledged_arrival(self):
        state = _state(
            queue_capacity=1, tenant_policy=TenantPolicy(backlog_capacity=4)
        )
        _submit(state, "a")
        held = _submit(state, "b")
        assert held.state == "held"
        assert held.arrival_s == 0.0
        assert _job(state, "b")["state"] == "held"
        assert _submit(state, "b").code == "duplicate"
        state.handle(protocol.AdvanceRequest(until_s=5.0))
        row = _job(state, "b")
        assert row["state"] in ("queued", "running")
        assert row["arrival_s"] == 0.0
        done = state.handle(protocol.DrainRequest()).completions
        (completion,) = [c for c in done if c.job_id == "b"]
        assert completion.arrival_s == pytest.approx(5.0)
        assert _job(state, "b")["arrival_s"] == 0.0

    def test_recovery_rejection_shows_the_logged_message(self):
        log = MemoryEventLog()
        store = JobStore(log)
        store.commit(
            ev.JobSubmitted(job_id="ghost#1", program="ghost"),
            ev.JobAdmitted(job_id="ghost#1", cap_w=15.0),
        )
        store.flush()
        state = _state(log)
        row = _job(state, "ghost#1")
        assert row["state"] == "rejected"
        assert row["detail"] == "program 'ghost' is no longer calibrated"
        assert row["detail"] == state.store.job("ghost#1").detail
        assert state.store.state.tenant_live == {}
