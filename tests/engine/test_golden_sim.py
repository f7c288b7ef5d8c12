"""SimCore runs, pinned.

``golden_sim.json`` was recorded by ``make_golden_sim.py`` before the
event core's per-run timing memo and integer physics keys; every run of
the arrival trace, the capped fixed replay, the timeshare loop and the
reactive-cap loop must reproduce every recorded bit, and the fixture must
regenerate byte for byte.
"""

import json

from tests.engine.make_golden_sim import FIXTURE, drive, render


def test_sim_runs_match_the_golden_record():
    golden = json.loads(FIXTURE.read_text())
    record = drive()
    assert record.keys() == golden.keys()
    for key, entry in golden.items():
        assert record[key] == entry, key


def test_golden_fixture_regenerates_byte_identically():
    assert render() == FIXTURE.read_text()
