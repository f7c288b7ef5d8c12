"""The runtime's schedules and measured executions, pinned.

``golden_runtime.json`` was recorded by ``make_golden_runtime.py`` when
the runtime still called the HCS function and the engine by hand; it now
dispatches through the scheduler registry and executes through its
context, and must reproduce every recorded schedule and bit.
"""

import json

from tests.core.make_golden_runtime import FIXTURE, drive


def test_runtime_policies_match_the_golden_record():
    golden = json.loads(FIXTURE.read_text())
    record = drive()
    assert record.keys() == golden.keys()
    for key, entry in golden.items():
        assert record[key] == entry, key
