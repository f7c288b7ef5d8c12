"""Regenerate the co-run golden fixture: finish times and power segments.

Co-runs every ordered pair of the eight calibrated Rodinia programs (CPU
program, GPU program) with :func:`~repro.engine.corun.corun_pair` at seven
frequency settings spread over the Ivy-Bridge-like grid, and records each
run's CPU and GPU finish times and its ``(duration_s, watts)`` power
segments.  Floats are stored as JSON numbers, whose ``repr`` round-trips
exactly, so the test compares bits; one pair and setting per line.

Run from the repo root to rewrite the fixture next to this file::

    PYTHONPATH=src python tests/engine/make_golden_corun.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.engine.corun import corun_pair
from repro.hardware import make_ivy_bridge
from repro.hardware.frequency import FrequencySetting
from repro.workload.rodinia import rodinia_programs

FIXTURE = Path(__file__).with_name("golden_corun.json")

#: (CPU level index, GPU level index) of each recorded setting: the grid's
#: corners, its middle, and three off-diagonal points.
LEVEL_PAIRS = ((0, 0), (15, 9), (0, 9), (15, 0), (7, 4), (3, 7), (11, 2))


def drive() -> dict:
    """Co-run every pair at every setting; return the pinned record."""
    processor = make_ivy_bridge()
    programs = rodinia_programs()
    record = {}
    for ci, gi in LEVEL_PAIRS:
        setting = FrequencySetting(
            processor.cpu.domain.levels[ci], processor.gpu.domain.levels[gi]
        )
        for cpu in programs:
            for gpu in programs:
                result = corun_pair(processor, cpu, gpu, setting)
                record[f"{cpu.name}/{gpu.name}@{ci},{gi}"] = {
                    "cpu_time_s": result.cpu_time_s,
                    "gpu_time_s": result.gpu_time_s,
                    "segments": [[s.duration_s, s.watts] for s in result.segments],
                }
    return record


def main() -> None:
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in drive().items()]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
