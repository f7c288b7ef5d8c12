"""Regenerate the online-HCS golden fixture: arrivals runs, pinned bit for bit.

Drives :class:`~repro.core.online.HcsOnlinePolicy` over the eight
calibrated Rodinia programs arriving in program order every 0, 5, 10 and
25 s, at caps of 12, 15 and 20 W, under all five objectives and on both
evaluation paths (120 runs; the scalar one is the context moved there by
:func:`tests.scalar.scalar_context`).  Each run executes through its context,
so the execution governor follows the objective while the policy ranks
co-runners by predicted interference.  The record pins the makespan, the
energy, the total flow and every completion's (job, device, start,
finish).  Floats are stored as JSON numbers, whose ``repr`` round-trips
exactly, so the test compares bits.

The fixture was recorded when the policy was built from the context's
predictor and cap (``HcsOnlinePolicy(ctx.predictor, cap)``) and carried
its own Step 2 and Step 3 rules; it now takes the context and reads the
batch heuristic's Step 2 and Step 3, and must reproduce every bit.

Run from the repo root to rewrite the fixture next to this file::

    PYTHONPATH=src python -m tests.core.make_golden_online
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.context import SchedulingContext, build_predictor
from repro.core.online import HcsOnlinePolicy
from repro.engine.sim import Scenario
from repro.objective import Objective
from repro.perf.cache import EvalCache
from repro.workload.program import make_jobs
from repro.workload.rodinia import rodinia_programs
from tests.scalar import scalar_context

FIXTURE = Path(__file__).with_name("golden_online.json")

GAPS_S = (0.0, 5.0, 10.0, 25.0)
CAPS_W = (12.0, 15.0, 20.0)
BACKENDS = ("tensor", "scalar")


def _measured(execution) -> dict:
    return {
        "makespan_s": execution.makespan_s,
        "energy_j": execution.energy_j,
        "flow_s": execution.flow_s,
        "completions": [
            [c.job, c.kind, c.start_s, c.finish_s] for c in execution.completions
        ],
    }


def drive() -> dict:
    """Run every (cap, objective, backend, gap) cell; return the record."""
    jobs = make_jobs(rodinia_programs())
    predictor = build_predictor(jobs, cache=EvalCache())
    record = {}
    for cap_w in CAPS_W:
        for objective in Objective:
            for backend in BACKENDS:
                ctx = SchedulingContext.build(
                    jobs, cap_w=cap_w, objective=objective, predictor=predictor
                )
                if backend == "scalar":
                    ctx = scalar_context(ctx)
                for gap in GAPS_S:
                    scenario = Scenario.from_arrivals(
                        [(job, i * gap) for i, job in enumerate(jobs)]
                    )
                    execution = ctx.simulate(
                        scenario, policy=HcsOnlinePolicy(ctx)
                    )
                    key = f"{cap_w:g}W/{objective.value}/{backend}/gap{gap:g}"
                    record[key] = _measured(execution)
    return record


def main() -> None:
    FIXTURE.write_text(json.dumps(drive(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
