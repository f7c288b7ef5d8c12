"""Open-system study: co-scheduling under job arrivals.

The paper's batch setting assumes all jobs are present at time zero.  A
shared workstation receives jobs over time; this experiment replays
Poisson-ish arrival sequences of the calibrated programs at several load
levels and compares the naive FIFO server, the HCS rules applied online
(preference-aware placement + minimum-interference pairing) and the online
service's re-plan rule (HCS re-run over the arrived pool whenever it
changes, :class:`~repro.core.online.ReplanOnlinePolicy`), on both makespan
and mean turnaround.
"""

from __future__ import annotations

from repro.hardware.calibration import DEFAULT_POWER_CAP_W
from repro.core.api import Scheduler
from repro.core.freqpolicy import Bias, BiasedGovernor, ModelGovernor
from repro.core.online import FifoOnlinePolicy, HcsOnlinePolicy, ReplanOnlinePolicy
from repro.engine.sim import Scenario, run as engine_run
from repro.workload.program import make_jobs
from repro.workload.rodinia import rodinia_programs
from repro.experiments.common import ExperimentResult, default_runtime
from repro.util.rng import default_rng
from repro.util.tables import format_table


def _arrival_sequence(jobs, mean_gap_s: float, rng) -> list:
    order = list(jobs)
    rng.shuffle(order)
    t = 0.0
    sequence = []
    for job in order:
        sequence.append((job, t))
        t += float(rng.exponential(mean_gap_s))
    return sequence


def run(
    cap_w: float = DEFAULT_POWER_CAP_W,
    mean_gaps_s=(0.0, 10.0, 25.0),
    seed: int = 5,
) -> ExperimentResult:
    runtime = default_runtime(cap_w=cap_w)
    ctx = runtime.context()
    jobs = make_jobs(rodinia_programs())

    rows = []
    headline = {}
    for gap in mean_gaps_s:
        rng = default_rng(seed)
        sequence = _arrival_sequence(jobs, gap, rng)

        scenario = Scenario.from_arrivals(sequence)
        fifo = engine_run(
            runtime.processor,
            scenario,
            policy=FifoOnlinePolicy(),
            governor=BiasedGovernor(runtime.predictor, cap_w, Bias.GPU),
        )
        hcs = engine_run(
            runtime.processor,
            scenario,
            policy=HcsOnlinePolicy(ctx),
            governor=ModelGovernor(runtime.predictor, cap_w),
        )
        replan = engine_run(
            runtime.processor,
            scenario,
            policy=ReplanOnlinePolicy(
                Scheduler("hcs", cap_w=cap_w, predictor=runtime.predictor)
            ),
            governor=ModelGovernor(runtime.predictor, cap_w),
        )
        label = "batch (gap 0)" if gap == 0 else f"mean gap {gap:.0f}s"
        rows.append(
            (
                label,
                fifo.makespan_s,
                hcs.makespan_s,
                replan.makespan_s,
                fifo.mean_turnaround_s,
                hcs.mean_turnaround_s,
                replan.mean_turnaround_s,
            )
        )
        key = f"gap{gap:.0f}"
        headline[f"{key}_turnaround_gain"] = (
            fifo.mean_turnaround_s / hcs.mean_turnaround_s
        )
        headline[f"{key}_makespan_gain"] = fifo.makespan_s / hcs.makespan_s

    result = ExperimentResult(
        name="arrivals",
        title="Online co-scheduling under job arrivals (open system)",
        headline=headline,
    )
    result.add_section(
        "FIFO server vs online HCS rules vs the service's re-plan rule",
        format_table(
            ["arrival load", "fifo makespan (s)", "hcs makespan (s)",
             "re-plan makespan (s)", "fifo mean turnaround (s)",
             "hcs mean turnaround (s)", "re-plan mean turnaround (s)"],
            rows,
            ndigits=1,
        ),
    )
    result.add_section(
        "notes",
        "With job lengths of 25-80 s, even 25 s mean gaps keep the system "
        "loaded, so the preference-aware, contention-aware placement keeps "
        "its batch-mode advantage across these loads; FIFO's losses come "
        "mostly from placing GPU-preferred jobs on the throttled CPU "
        "whenever it happens to idle first.  Re-planning the arrived pool with "
        "batch HCS (the service's rule) and greedy online HCS trade wins "
        "across caps and loads; neither dominates.",
    )
    return result
