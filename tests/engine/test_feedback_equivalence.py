"""Reactive cap control on ``SimCore`` against the frozen hand-written loop.

The driver schedules control ticks at ``k * interval`` while the old loop
accumulated ``interval - elapsed``, so the clocks differ in the last bits:
the comparison is exact on decisions (setting trace, completion order,
segment count) and within 1e-12 relative on times and energy.
"""

from __future__ import annotations

import pytest

from repro.analysis.invariants import verify_execution
from repro.engine.feedback import execute_with_reactive_cap
from repro.engine.tracing import segments_energy_j
from tests.engine._reference import reference_execute_with_reactive_cap

REL = 1e-12


def assert_equivalent(processor, cpu_queue, gpu_queue, cap_w, **kwargs) -> None:
    execution, trace = execute_with_reactive_cap(
        processor, cpu_queue, gpu_queue, cap_w, **kwargs
    )
    ref, ref_trace = reference_execute_with_reactive_cap(
        processor, cpu_queue, gpu_queue, cap_w, **kwargs
    )
    assert trace == ref_trace
    assert [(c.job, c.kind) for c in execution.completions] == [
        (c.job, c.kind) for c in ref.completions
    ]
    assert len(execution.segments) == len(ref.segments)
    assert execution.makespan_s == pytest.approx(ref.makespan_s, rel=REL, abs=0.0)
    assert execution.energy_j == pytest.approx(
        segments_energy_j(ref.segments), rel=REL, abs=0.0
    )
    for got, want in zip(execution.completions, ref.completions):
        assert got.finish_s == pytest.approx(want.finish_s, rel=REL, abs=0.0)
        assert got.start_s == pytest.approx(want.start_s, rel=REL, abs=0.0)
    assert verify_execution(execution) == []


@pytest.mark.parametrize("interval_s", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("gpu_biased", [True, False])
@pytest.mark.parametrize("cap_w", [12.0, 15.0, 20.0])
def test_two_queues_match_the_frozen_loop(
    processor, rodinia_jobs, cap_w, gpu_biased, interval_s
):
    assert_equivalent(
        processor,
        rodinia_jobs[:3],
        rodinia_jobs[3:6],
        cap_w,
        gpu_biased=gpu_biased,
        control_interval_s=interval_s,
    )


@pytest.mark.parametrize("cap_w", [12.0, 15.0, 20.0])
def test_solo_queue_matches_the_frozen_loop(processor, rodinia_jobs, cap_w):
    assert_equivalent(processor, [], rodinia_jobs[:2], cap_w)
    assert_equivalent(processor, rodinia_jobs[2:4], [], cap_w, gpu_biased=False)


def test_empty_schedule_matches_the_frozen_loop(processor):
    assert_equivalent(processor, [], [], 15.0)


def test_sanitizer_referees_the_result(monkeypatch, processor, rodinia_jobs):
    from repro.analysis import invariants

    seen = []
    monkeypatch.setattr(
        invariants, "check_execution", lambda result, where: seen.append(where)
    )
    monkeypatch.setenv(invariants.SANITIZE_ENV, "1")
    execute_with_reactive_cap(processor, rodinia_jobs[:1], rodinia_jobs[1:2], 15.0)
    monkeypatch.setenv(invariants.SANITIZE_ENV, "0")
    execute_with_reactive_cap(processor, rodinia_jobs[:1], rodinia_jobs[1:2], 15.0)
    assert seen == ["engine.feedback"]
