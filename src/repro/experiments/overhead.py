"""Section VI-D: scheduling overhead.

The paper reports that the scheduling algorithm costs less than 0.1% of the
makespan thanks to its linear complexity.  Here the comparison is between
the *wall-clock* time our HCS/HCS+ implementation spends scheduling and
the *simulated* makespan of the resulting schedule; since a simulated
second is calibrated to a real second of the paper's workloads (Table I),
the ratio is meaningful.
"""

from __future__ import annotations

from repro.hardware.calibration import DEFAULT_POWER_CAP_W
from repro.experiments.common import ExperimentResult, default_runtime
from repro.util.tables import format_table


def run(cap_w: float = DEFAULT_POWER_CAP_W) -> ExperimentResult:
    rows = []
    headline = {}
    perf: dict[str, float] = {}
    for instances, label in ((1, "8 jobs"), (2, "16 jobs")):
        runtime = default_runtime(instances=instances, cap_w=cap_w)
        for refine, policy in ((False, "hcs"), (True, "hcs+")):
            outcome = runtime.run_hcs(refine=refine)
            frac = outcome.scheduling_time_s / outcome.makespan_s
            rows.append(
                (f"{policy} ({label})", outcome.scheduling_time_s * 1e3,
                 outcome.makespan_s, 100 * frac)
            )
            headline[f"{policy}_{instances}x_overhead_frac"] = frac
        perf = runtime.perf_stats()

    result = ExperimentResult(
        name="overhead",
        title="Scheduling overhead (paper: < 0.1% of the makespan)",
        headline=headline,
        perf=perf,
    )
    result.add_section(
        "scheduling cost vs makespan",
        format_table(
            ["configuration", "scheduling (ms)", "makespan (s)", "overhead %"],
            rows,
            ndigits=3,
        ),
    )
    return result
