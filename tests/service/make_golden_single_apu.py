"""Regenerate the single-APU golden fixture: store log plus wire replies.

Drives one daemon-default ``ServiceState`` (``build_state`` over an
in-memory store, no fleet configured) through a fixed request script
that touches every admission and timeline path: a submit burst that
overflows the queue into the tenant backlog, a duplicate uid, an
idempotent resubmit, an infeasible submit under a 3 W cap, cap changes
now, in the future and in the past, advances that complete work and
start held submissions, and a final drain.  The output pins every store
event and every reply line.

Run from the repo root to rewrite the fixture next to this file::

    PYTHONPATH=src python tests/service/make_golden_single_apu.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.service import protocol
from repro.service.shard import ShardConfig, build_state
from repro.store.events import encode_event

FIXTURE = Path(__file__).with_name("golden_single_apu.json")

#: The request script, in wire form.
SCRIPT: tuple = (
    # Submit burst: four fill the queue, two more are held in the backlog.
    protocol.SubmitRequest(program="cfd", uid="j0", idempotency_key="k0"),
    protocol.SubmitRequest(program="lud", uid="j1", tenant="t1"),
    protocol.SubmitRequest(program="srad", uid="j2", priority=2),
    protocol.SubmitRequest(program="dwt2d", uid="j3", scale=0.5),
    protocol.SubmitRequest(program="hotspot", uid="j4", tenant="t1"),
    protocol.SubmitRequest(program="lud", uid="j5", priority=1),
    protocol.StatusRequest(),
    # A reused uid, then an idempotent retry under a fresh uid.
    protocol.SubmitRequest(program="lud", uid="j1"),
    protocol.SubmitRequest(program="cfd", uid="j0-retry", idempotency_key="k0"),
    # Infeasible under a 3 W cap (the queue has room again by then); an
    # integer cap must come back as an integer.
    protocol.AdvanceRequest(until_s=0.5),
    protocol.SetCapRequest(cap_w=3),
    protocol.StatusRequest(),
    protocol.SubmitRequest(program="leukocyte", uid="tiny"),
    protocol.SetCapRequest(cap_w=15.0),
    # Cap changes in the future and in the past.
    protocol.SetCapRequest(cap_w=12.0, at_s=4.0),
    protocol.AdvanceRequest(until_s=2.0),
    protocol.SetCapRequest(cap_w=14.0, at_s=1.0),
    protocol.SubmitRequest(program="streamcluster", uid="j6", arrival_s=3.0),
    protocol.AdvanceRequest(until_s=40.0),
    protocol.StatusRequest(),
    protocol.JobsRequest(),
    protocol.DrainRequest(),
    protocol.StatusRequest(),
    protocol.JobsRequest(),
)


def drive() -> dict:
    """Run :data:`SCRIPT` on a fresh state; return the pinned record."""
    state = build_state(ShardConfig(
        seed=7, queue_capacity=4, backlog_capacity=8,
    ))
    exchanges = []
    for request in SCRIPT:
        line = protocol.encode(request)
        reply = state.handle(protocol.decode_request(line))
        exchanges.append({
            "request": line.decode().rstrip("\n"),
            "reply": protocol.encode(reply).decode().rstrip("\n"),
        })
    events = [encode_event(event) for _, event in state.store.log.replay(0)]
    state.close()
    return {"exchanges": exchanges, "events": events}


def main() -> None:
    FIXTURE.write_text(json.dumps(drive(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
