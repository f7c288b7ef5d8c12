"""Tests for execution trace records and conversions."""

import pytest

from repro.engine.tracing import (
    JobCompletion,
    PowerSegment,
    segments_energy_j,
    segments_mean_power_w,
    segments_to_trace,
)


class TestSegmentAggregates:
    def test_energy_is_duration_weighted(self):
        segments = (PowerSegment(2.0, 10.0), PowerSegment(1.0, 16.0))
        assert segments_energy_j(segments) == pytest.approx(36.0)

    def test_mean_power_weighted(self):
        segments = (PowerSegment(2.0, 10.0), PowerSegment(1.0, 16.0))
        assert segments_mean_power_w(segments) == pytest.approx(12.0)

    def test_empty_segments(self):
        assert segments_energy_j(()) == 0.0
        assert segments_mean_power_w(()) == 0.0

    def test_trace_conversion_preserves_energy(self):
        segments = (PowerSegment(1.3, 12.0), PowerSegment(2.7, 18.0))
        trace = segments_to_trace(segments, dt_s=1.0)
        total = sum(d for d, _ in ((s.duration_s, 0) for s in segments))
        trace_energy = 0.0
        for sample in trace.samples:
            window = min(1.0, total - sample.time_s)
            trace_energy += sample.watts * window
        assert trace_energy == pytest.approx(segments_energy_j(segments))


class TestJobCompletion:
    def test_duration(self):
        c = JobCompletion(job="a", kind="cpu", finish_s=12.0, start_s=4.0)
        assert c.duration_s == pytest.approx(8.0)

    def test_default_start_is_zero(self):
        c = JobCompletion(job="a", kind="gpu", finish_s=5.0)
        assert c.start_s == 0.0


class TestPairTimelineConsistency:
    def test_single_pair_schedule_matches_corun_pair(self, processor, rodinia):
        """Executing a one-job-per-queue schedule must agree exactly with
        the pairwise co-run simulator at the same frequencies — the two
        code paths share the phase engine and must not drift apart."""
        from repro.engine.corun import corun_pair
        from repro.engine.sim import Scenario, run
        from repro.workload.program import Job

        a = Job("a", rodinia["dwt2d"])
        b = Job("b", rodinia["streamcluster"])
        setting = processor.max_setting
        execution = run(
            processor, Scenario.from_queues([a], [b]),
            governor=lambda c, g: setting,
        )
        pair = corun_pair(
            processor, rodinia["dwt2d"], rodinia["streamcluster"], setting
        )
        assert execution.finish_of("a") == pair.cpu_time_s
        assert execution.finish_of("b") == pair.gpu_time_s
        # repro: noqa REP003 -- one event core, so the bits must match
        assert execution.makespan_s == pair.makespan_s
        assert execution.segments == pair.segments

    def test_corun_pair_matches_the_golden_record(self):
        """Every Rodinia pair at seven settings reproduces the finish times
        and power segments recorded by ``make_golden_corun.py``, bit for
        bit."""
        import json

        from tests.engine.make_golden_corun import FIXTURE, drive

        golden = json.loads(FIXTURE.read_text())
        record = drive()
        assert record.keys() == golden.keys()
        for key, entry in golden.items():
            assert record[key] == entry, key
