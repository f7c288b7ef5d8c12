#!/usr/bin/env python
"""Online HCS co-runner ranking: summed degradation vs objective cost.

Run from the repo root (prints the Markdown table RESULTS.md records,
then the number of cells each ranking won)::

    PYTHONPATH=src python tools/online_ranking.py

Replays the eight calibrated programs arriving with gaps of 5 and 10 s,
in two shapes: the arrivals experiment's seeded sequence (shuffled order,
exponential gaps of that mean) and ``repro simulate --arrive-every``'s
(program order, job i at i x gap).  Each shape runs at caps of 12, 15
and 20 W under all five objectives.  Each run executes under the context's
governor and is scored on the context's objective.  Two Step 3 rankings
are compared: ``HcsOnlinePolicy`` ranks co-runner candidates by summed
degradation (the paper's minimum-interference rule); the alternative
ranks them by the context governor's pair cost, which for the energy,
EDP and makespan+energy governors is the objective's own cost.
"""

from itertools import product

from repro.core.context import SchedulingContext, build_predictor
from repro.core.online import HcsOnlinePolicy
from repro.engine.sim import Scenario
from repro.experiments.arrivals import _arrival_sequence
from repro.objective import Objective
from repro.perf.cache import EvalCache
from repro.util.rng import default_rng
from repro.workload.program import make_jobs
from repro.workload.rodinia import rodinia_programs

CAPS_W = (12.0, 15.0, 20.0)
GAPS_S = (5.0, 10.0)
SEED = 5  # the arrivals experiment's default seed
SHAPES = {
    "seeded": lambda jobs, gap: _arrival_sequence(jobs, gap, default_rng(SEED)),
    "fixed": lambda jobs, gap: [(job, i * gap) for i, job in enumerate(jobs)],
}


class ObjectiveRankedPolicy(HcsOnlinePolicy):
    """Online HCS whose Step 3 ranks by the context governor's pair cost."""

    def _ranking_governor(self, ctx, cap: float):
        return ctx.governor


def _cell(by_interference: float, by_cost: float) -> tuple[str, str]:
    """One table cell (the winner in bold) and the winner's name."""
    if by_interference == by_cost:
        return f"{by_interference:.6g} (tie)", "tie"
    if by_interference < by_cost:
        return f"**{by_interference:.6g}** / {by_cost:.6g}", "interference"
    return f"{by_interference:.6g} / **{by_cost:.6g}**", "objective cost"


def main() -> int:
    jobs = make_jobs(rodinia_programs())
    predictor = build_predictor(jobs, cache=EvalCache())
    columns = list(product(SHAPES, GAPS_S))
    print(
        "| cap (W) | objective | "
        + " | ".join(f"{shape}, gap {gap:g} s" for shape, gap in columns)
        + " |"
    )
    print("|---|---|" + "---|" * len(columns))
    wins = {"interference": 0, "objective cost": 0, "tie": 0}
    for cap_w in CAPS_W:
        for objective in Objective:
            ctx = SchedulingContext.build(
                jobs, cap_w=cap_w, objective=objective, predictor=predictor
            )
            cells = []
            for shape, gap in columns:
                scenario = Scenario.from_arrivals(SHAPES[shape](jobs, gap))
                text, winner = _cell(
                    ctx.simulate(scenario, policy=HcsOnlinePolicy(ctx)).score(),
                    ctx.simulate(scenario, policy=ObjectiveRankedPolicy(ctx)).score(),
                )
                cells.append(text)
                wins[winner] += 1
            print(f"| {cap_w:g} | {objective.value} | " + " | ".join(cells) + " |")
    print()
    print("Cells won: " + ", ".join(f"{name} {count}" for name, count in wins.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
