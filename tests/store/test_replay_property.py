"""Property test: snapshot + suffix recovery ≡ full replay.

The store's recovery path folds the last snapshot and replays only the
log suffix.  Its correctness contract is that for *any* valid event
sequence and *any* snapshot cut point, the recovered state is
indistinguishable from refolding the whole log from scratch.  Hypothesis
drives a stateful job-lifecycle generator through the fold and checks the
equivalence at every prefix length.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis import verify_store_log
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
    JobSubmitted,
    MemoryEventLog,
    decode_event,
    encode_event,
)
from repro.store.store import (
    DONE,
    LIVE_STATES,
    PREEMPTED,
    QUEUED,
    REJECTED,
    RUNNING,
    SUBMITTED,
    StoreState,
    fold,
)

_PROGRAMS = ("lud", "cfd", "srad", "hotspot")


@st.composite
def event_logs(draw):
    """A valid event sequence built by walking the job lifecycle.

    Each step either advances a random live job along a legal transition,
    submits a new job, or changes the cap/clock — so every generated log
    folds cleanly, exactly like a log the store itself would have written.
    """
    state = StoreState()
    events = []
    n_steps = draw(st.integers(min_value=0, max_value=40))
    next_id = 0
    for _ in range(n_steps):
        live = [j for j in state.jobs.values()
                if j.state not in (DONE, REJECTED)]
        choices = ["submit", "cap", "clock"]
        if live:
            choices.append("advance")
            choices.append("advance")  # bias toward driving jobs forward
        kind = draw(st.sampled_from(choices))
        if kind == "submit":
            job_id = f"job-{next_id}"
            next_id += 1
            key = draw(st.one_of(st.none(), st.just(f"key-{job_id}")))
            event = JobSubmitted(
                job_id=job_id,
                program=draw(st.sampled_from(_PROGRAMS)),
                scale=draw(st.floats(0.5, 2.0, allow_nan=False)),
                arrival_s=state.now_s,
                tenant=draw(st.sampled_from(("default", "acme", "umbrella"))),
                priority=draw(st.integers(0, 3)),
                idempotency_key=key,
            )
        elif kind == "cap":
            event = CapChanged(cap_w=draw(st.floats(5.0, 45.0)), at_s=state.now_s)
        elif kind == "clock":
            event = ClockAdvanced(
                now_s=state.now_s + draw(st.floats(0.0, 5.0, allow_nan=False))
            )
        else:
            job = live[draw(st.integers(0, len(live) - 1))]
            device = draw(st.sampled_from(("cpu", "gpu")))
            if job.state == SUBMITTED:
                event = draw(st.sampled_from([
                    JobAdmitted(job_id=job.job_id, cap_w=state.cap_w or 30.0),
                    JobRejected(job_id=job.job_id, code="quota"),
                ]))
            elif job.state == QUEUED:
                event = JobScheduled(
                    job_id=job.job_id, device=device, start_s=state.now_s
                )
            elif job.state == RUNNING:
                event = draw(st.sampled_from([
                    JobCompleted(
                        job_id=job.job_id,
                        device=job.device or device,
                        start_s=job.start_s or 0.0,
                        finish_s=state.now_s,
                    ),
                    JobPreempted(
                        job_id=job.job_id,
                        device=job.device or device,
                        at_s=state.now_s,
                    ),
                    JobRequeued(job_id=job.job_id),
                ]))
            else:  # PREEMPTED
                assert job.state == PREEMPTED
                event = draw(st.sampled_from([
                    JobScheduled(
                        job_id=job.job_id, device=device, start_s=state.now_s
                    ),
                    JobMigrated(
                        job_id=job.job_id,
                        src=job.device or "cpu",
                        dst=device,
                        at_s=state.now_s,
                    ),
                    JobRequeued(job_id=job.job_id),
                ]))
        state.apply(event)
        events.append(event)
    return events


@given(events=event_logs(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_prefix_snapshot_plus_suffix_equals_full_replay(events, data):
    cut = data.draw(st.integers(0, len(events)), label="snapshot cut")
    full = fold(events)

    # Recovery path: fold the prefix, round-trip it through the snapshot
    # codec (as the log does), then replay only the suffix on top.
    prefix_state = fold(events[:cut])
    recovered = StoreState.from_dict(prefix_state.to_dict())
    fold(events[cut:], recovered)

    assert recovered.to_dict() == full.to_dict()


@given(events=event_logs())
@settings(max_examples=60, deadline=None)
def test_codec_round_trip_preserves_the_fold(events):
    decoded = [decode_event(encode_event(e)) for e in events]
    assert fold(decoded).to_dict() == fold(events).to_dict()


@given(events=event_logs(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_verifier_accepts_every_generated_log(events, data):
    """Any log the lifecycle walker can produce is sound under the
    store-log verifier, at every possible snapshot point."""
    log = MemoryEventLog()
    log.append_many(events)
    cut = data.draw(st.integers(0, len(events)), label="snapshot cut")
    log.save_snapshot(cut, fold(events[:cut]).to_dict())
    assert verify_store_log(log) == []


def _assert_index_sound(state: StoreState) -> None:
    recount: dict[str, int] = {}
    for job in state.jobs.values():
        if job.state in LIVE_STATES:
            recount[job.tenant] = recount.get(job.tenant, 0) + 1
    assert state.tenant_live == recount
    clone = StoreState.from_dict(state.to_dict())
    assert clone.tenant_live == state.tenant_live


@given(events=event_logs())
@settings(max_examples=60, deadline=None)
def test_tenant_live_index_matches_a_recount_at_every_prefix(events):
    """The fold's per-tenant live index equals a recount over ``jobs``
    after every event, and a snapshot round trip rebuilds it."""
    state = StoreState()
    _assert_index_sound(state)
    for event in events:
        state.apply(event)
        _assert_index_sound(state)
