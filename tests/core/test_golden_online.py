"""Online HCS arrivals runs, pinned.

``golden_online.json`` was recorded by ``make_golden_online.py`` when the
policy was built from a predictor and a cap and wrote its own copies of
the heuristic's Step 2 and Step 3; it now takes a scheduling context and
reads the batch heuristic's, and must reproduce every recorded bit.
"""

import json

from tests.core.make_golden_online import FIXTURE, drive


def test_online_hcs_matches_the_golden_record():
    golden = json.loads(FIXTURE.read_text())
    record = drive()
    assert record.keys() == golden.keys()
    for key, entry in golden.items():
        assert record[key] == entry, key
