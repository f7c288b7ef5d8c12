"""The single-APU daemon's store log and wire replies, pinned.

``golden_single_apu.json`` was recorded by ``make_golden_single_apu.py``
when the daemon still ran a bare ``ServiceSession`` for one APU; the
daemon now runs a one-node ``FleetSession`` and must reproduce every
event and every reply byte for byte.
"""

import json

from tests.service.make_golden_single_apu import FIXTURE, drive


def test_single_apu_log_and_replies_match_the_golden_record():
    golden = json.loads(FIXTURE.read_text())
    record = drive()
    assert record["exchanges"] == golden["exchanges"]
    assert record["events"] == golden["events"]
