"""Shared infrastructure for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.hardware.calibration import DEFAULT_POWER_CAP_W
from repro.workload.program import make_jobs
from repro.workload.rodinia import rodinia_programs
from repro.core.runtime import CoScheduleRuntime
from repro.util.tables import format_kv

#: Input-size scales of the two instances in the 16-program study ("two
#: instances for each of the eight programs with different inputs").
INSTANCE_SCALES = (1.0, 0.85)


@dataclass
class ExperimentResult:
    """Rendered output plus machine-readable headline metrics.

    ``perf`` holds the evaluation-layer counters of the runtime that
    produced the result (cache hits/misses, hit rate — see
    :meth:`repro.core.runtime.CoScheduleRuntime.perf_stats`); when present
    it is rendered as its own section.
    """

    name: str
    title: str
    headline: dict[str, float] = field(default_factory=dict)
    sections: list[tuple[str, str]] = field(default_factory=list)
    perf: dict[str, float] = field(default_factory=dict)

    def add_section(self, title: str, body: str) -> None:
        self.sections.append((title, body))

    def render(self) -> str:
        lines = [f"=== {self.name}: {self.title} ==="]
        for title, body in self.sections:
            lines.append("")
            lines.append(f"--- {title} ---")
            lines.append(body)
        if self.headline:
            lines.append("")
            lines.append("--- headline metrics ---")
            lines.append(format_kv(self.headline, ndigits=4))
        if self.perf:
            lines.append("")
            lines.append("--- perf layer ---")
            lines.append(format_kv(self.perf, ndigits=4))
        return "\n".join(lines)


@lru_cache(maxsize=8)
def default_runtime(
    instances: int = 1,
    cap_w: float = DEFAULT_POWER_CAP_W,
) -> CoScheduleRuntime:
    """A cached runtime over the calibrated Rodinia-like workload.

    ``instances=2`` reproduces the 16-program study's job set (two
    differently sized instances per program).
    """
    if instances == 1:
        jobs = make_jobs(rodinia_programs())
    else:
        scales = INSTANCE_SCALES[:instances]
        jobs = make_jobs(rodinia_programs(), instances=instances, instance_scales=scales)
    return CoScheduleRuntime(jobs, cap_w=cap_w)
