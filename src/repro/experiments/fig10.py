"""Figure 10: speedups over Random, 8 program instances, 15 W cap.

The paper's headline scheduling result: with Random as the baseline
(averaged over 20 seeds), Default_C gains ~9%, Default_G ~32%, HCS another
~6% over Default_G, HCS+ ~3% more, and the lower bound shows the remaining
headroom.  The *shape* to reproduce: Random < Default_C < Default_G < HCS
<= HCS+ < bound.
"""

from __future__ import annotations

from repro.hardware.calibration import DEFAULT_POWER_CAP_W
from repro.core.freqpolicy import Bias
from repro.experiments.common import ExperimentResult, default_runtime
from repro.util.asciiplot import bar_chart
from repro.util.gantt import render_gantt
from repro.util.tables import format_table

#: Paper-reported speedups over Random (Figure 10).
PAPER_SPEEDUPS = {
    "default_c": 1.09,
    "default_g": 1.32,
    "hcs": 1.38,
    "hcs+": 1.41,
}


def run(
    cap_w: float = DEFAULT_POWER_CAP_W,
    *,
    instances: int = 1,
    n_random: int = 20,
    name: str = "fig10",
    paper_speedups: dict[str, float] | None = None,
) -> ExperimentResult:
    if paper_speedups is None:
        paper_speedups = PAPER_SPEEDUPS
    runtime = default_runtime(instances=instances, cap_w=cap_w)

    random_mean = runtime.random_average(n=n_random).mean_makespan_s
    outcomes = {
        "default_c": runtime.run_default(bias=Bias.CPU),
        "default_g": runtime.run_default(bias=Bias.GPU),
        "hcs": runtime.run_hcs(),
        "hcs+": runtime.run_hcs(refine=True),
    }
    bound = runtime.lower_bound_s()

    rows = [("random", random_mean, 1.0, 1.0)]
    headline = {"random_makespan_s": random_mean, "bound_s": bound}
    labels, values = ["random"], [1.0]
    for policy, outcome in outcomes.items():
        speedup = random_mean / outcome.makespan_s
        rows.append((policy, outcome.makespan_s, speedup, paper_speedups[policy]))
        headline[f"{policy}_speedup"] = speedup
        labels.append(policy)
        values.append(speedup)
    rows.append(("lower bound", bound, random_mean / bound, float("nan")))
    labels.append("bound")
    values.append(random_mean / bound)
    headline["bound_speedup"] = random_mean / bound

    hcs_outcome = outcomes["hcs"]
    headline["scheduling_overhead_frac"] = (
        hcs_outcome.scheduling_time_s / hcs_outcome.makespan_s
    )

    result = ExperimentResult(
        name=name,
        title=f"Speedup over Random ({8 * instances} instances, "
        f"TDP={cap_w:.0f} W)",
        headline=headline,
        perf=runtime.perf_stats(),
    )
    result.add_section(
        "makespans and speedups",
        format_table(
            ["policy", "makespan (s)", "speedup/random", "paper"], rows, ndigits=3
        ),
    )
    result.add_section("speedup over Random", bar_chart(labels, values, unit="x"))
    result.add_section(
        "schedules",
        "HCS:\n" + outcomes["hcs"].schedule.describe()
        + "\nHCS+:\n" + outcomes["hcs+"].schedule.describe(),
    )
    best = outcomes["hcs+"]
    result.add_section(
        "HCS+ timeline",
        render_gantt(
            best.execution.completions, makespan_s=best.makespan_s
        ),
    )
    return result
