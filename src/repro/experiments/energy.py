"""Energy study: what changes when the *objective* changes.

Two questions, both through the unified ``schedule()`` entry point:

1. **Governor sweep** — fix the schedule (HCS+ built for ``objective``,
   makespan by default) and execute it under three frequency policies: the
   performance-oriented HCS governor, the energy-aware governor, and the
   GPU-biased baseline.  Quantifies the trade the power cap leaves open:
   the cap limits *instantaneous* power, but which point under the cap to
   run at is an objective choice Definition 2.1 does not fix.

2. **Objective sweep** — re-run the scheduler itself once per objective
   (makespan / energy / EDP) and execute each result under its own
   governor.  Shows what end-to-end objective-aware scheduling buys over
   merely swapping the governor under a makespan-optimal schedule.
"""

from __future__ import annotations

from repro.hardware.calibration import DEFAULT_POWER_CAP_W
from repro.core.api import schedule
from repro.core.freqpolicy import Bias, BiasedGovernor
from repro.core.objectives import EnergyAwareGovernor
from repro.objective import Objective
from repro.experiments.common import ExperimentResult, default_runtime
from repro.util.tables import format_table


def run(
    cap_w: float = DEFAULT_POWER_CAP_W,
    objective: str = "makespan",
    seed: int | None = None,
) -> ExperimentResult:
    runtime = default_runtime(cap_w=cap_w)
    base = schedule(
        runtime.jobs,
        method="hcs+",
        cap_w=cap_w,
        objective=objective,
        predictor=runtime.predictor,
        seed=seed,
    )

    governors = {
        "performance (HCS)": base.governor
        if base.objective is Objective.MAKESPAN
        else runtime.context(objective="makespan").governor,
        "energy-aware": EnergyAwareGovernor(runtime.predictor, cap_w),
        "gpu-biased": BiasedGovernor(runtime.predictor, cap_w, Bias.GPU),
    }

    rows = []
    headline = {}
    for name, governor in governors.items():
        execution = runtime.execute(base.schedule, governor)
        rows.append(
            (
                name,
                execution.makespan_s,
                execution.energy_j / 1e3,
                execution.mean_power_w,
                execution.score(Objective.EDP) / 1e6,
            )
        )
        key = name.split()[0].split("-")[0]
        headline[f"{key}_makespan_s"] = execution.makespan_s
        headline[f"{key}_energy_kj"] = execution.energy_j / 1e3

    obj_rows = []
    for obj in Objective:
        result = schedule(
            runtime.jobs,
            method="hcs+",
            cap_w=cap_w,
            objective=obj,
            predictor=runtime.predictor,
            seed=seed,
        )
        execution = runtime.execute(result.schedule, result.governor)
        obj_rows.append(
            (
                obj.value,
                execution.makespan_s,
                execution.energy_j / 1e3,
                execution.mean_power_w,
                execution.score(Objective.EDP) / 1e6,
            )
        )
        headline[f"obj_{obj.value}_makespan_s"] = execution.makespan_s
        headline[f"obj_{obj.value}_energy_kj"] = execution.energy_j / 1e3

    result = ExperimentResult(
        name="energy",
        title="Throughput-optimal vs energy-optimal co-scheduling",
        headline=headline,
        perf=runtime.perf_stats(),
    )
    result.add_section(
        f"HCS+ ({base.objective.value}) schedule under different governors "
        f"({cap_w:.0f} W cap)",
        format_table(
            ["governor", "makespan (s)", "energy (kJ)", "mean power (W)",
             "EDP (MJ*s)"],
            rows,
            ndigits=2,
        ),
    )
    result.add_section(
        f"HCS+ re-scheduled per objective ({cap_w:.0f} W cap)",
        format_table(
            ["objective", "makespan (s)", "energy (kJ)", "mean power (W)",
             "EDP (MJ*s)"],
            obj_rows,
            ndigits=2,
        ),
    )
    return result
