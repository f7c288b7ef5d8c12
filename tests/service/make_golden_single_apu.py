"""Regenerate the daemon golden fixtures: store log plus wire replies.

Each golden drives one ``ServiceState`` (``build_state`` over an
in-memory store) through a fixed request script and pins every store
event and every reply line:

``single_apu``
    The daemon default (no fleet configured, makespan objective).  The
    script touches every admission and timeline path: a submit burst that
    overflows the queue into the tenant backlog, a duplicate uid, an
    idempotent resubmit, an infeasible submit under a 3 W cap, cap
    changes now, in the future and in the past, advances that complete
    work and start held submissions, and a final drain.
``fleet_energy``
    A 2-node fleet with one node-scaled machine, scheduling for energy:
    a submit burst, an infeasible submit, cap changes now and in the
    future, advances and a drain.  It pins node scoping and the per-node
    cap governor on the daemon path.

Run from the repo root to rewrite every fixture next to this file::

    PYTHONPATH=src python tests/service/make_golden_single_apu.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.fleet import Fleet, Node
from repro.service import protocol
from repro.service.shard import ShardConfig, build_state
from repro.store.events import encode_event

_HERE = Path(__file__).parent

#: The single-APU request script, in wire form.
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

#: The 2-node energy fleet: a fast, power-hungry node and a stock one.
FLEET = Fleet(nodes=(
    Node("big", speed_scale=1.5, power_scale=1.2, cap_w=15.0),
    Node("small", cap_w=12.0),
))

#: The fleet request script (fleet caps are the summed node caps, 27 W).
FLEET_SCRIPT: tuple = (
    protocol.SubmitRequest(program="cfd", uid="f0"),
    protocol.SubmitRequest(program="lud", uid="f1"),
    protocol.SubmitRequest(program="srad", uid="f2", scale=2.0),
    protocol.SubmitRequest(program="dwt2d", uid="f3"),
    protocol.SubmitRequest(program="hotspot", uid="f4"),
    protocol.SubmitRequest(program="streamcluster", uid="f5"),
    protocol.SubmitRequest(program="leukocyte", uid="f6", scale=0.5),
    protocol.StatusRequest(),
    protocol.AdvanceRequest(until_s=0.5),
    # Under a 3 W fleet cap no node admits anything.
    protocol.SetCapRequest(cap_w=3.0),
    protocol.SubmitRequest(program="lud", uid="tiny"),
    protocol.SetCapRequest(cap_w=27.0),
    # A cut now, then a future cap change landing mid-run.
    protocol.SetCapRequest(cap_w=20.0),
    protocol.SetCapRequest(cap_w=24.0, at_s=3.0),
    protocol.AdvanceRequest(until_s=2.0),
    protocol.SubmitRequest(program="cfd", uid="f7", arrival_s=2.5),
    protocol.SubmitRequest(program="srad", uid="f8"),
    protocol.AdvanceRequest(until_s=75.0),
    protocol.StatusRequest(),
    protocol.JobsRequest(),
    protocol.DrainRequest(),
    protocol.StatusRequest(),
    protocol.JobsRequest(),
)

#: Golden name -> (shard config, request script, fixture path).
GOLDENS: dict = {
    "single_apu": (
        ShardConfig(seed=7, queue_capacity=4, backlog_capacity=8),
        SCRIPT,
        _HERE / "golden_single_apu.json",
    ),
    "fleet_energy": (
        ShardConfig(seed=7, fleet=FLEET.to_dict(), objective="energy"),
        FLEET_SCRIPT,
        _HERE / "golden_fleet_energy.json",
    ),
}


def drive(config: ShardConfig, script) -> dict:
    """Run ``script`` on a fresh state for ``config``; return the record."""
    state = build_state(config)
    exchanges = []
    for request in script:
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
    for config, script, fixture in GOLDENS.values():
        fixture.write_text(json.dumps(drive(config, script), indent=1) + "\n")
        print(f"wrote {fixture}")


if __name__ == "__main__":
    main()
