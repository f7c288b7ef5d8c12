"""The daemon's store log and wire replies, pinned.

``golden_single_apu.json`` was recorded by ``make_golden_single_apu.py``
when the daemon still ran a bare ``ServiceSession`` for one APU; the
daemon now runs a one-node ``FleetSession`` and must reproduce every
event and every reply byte for byte.  ``golden_fleet_energy.json`` pins a
2-node, node-scaled, energy-objective daemon the same way; it was
recorded while the online scheduler still kept its own cap governor.
"""

import json

import pytest

from tests.service.make_golden_single_apu import GOLDENS, drive


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_log_and_replies_match_the_golden_record(name):
    config, script, fixture = GOLDENS[name]
    golden = json.loads(fixture.read_text())
    record = drive(config, script)
    assert record["exchanges"] == golden["exchanges"]
    assert record["events"] == golden["events"]
