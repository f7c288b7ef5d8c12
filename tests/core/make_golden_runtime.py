"""Regenerate the runtime golden fixture: schedules and measured bits.

Drives :class:`~repro.core.runtime.CoScheduleRuntime` over the first six
calibrated Rodinia programs at 15 W, for the makespan and energy
objectives on both evaluation paths (the runtime's own contexts, and the
same contexts moved to the scalar stack by
:func:`tests.scalar.scalar_context`), and records what every policy
produces: the HCS and HCS+ schedules with their executed makespan and
energy, Default_G and Default_C, the mean of three seeded Random runs,
the Section IV-B lower bound, and ``execute`` of the HCS schedule under
the runtime's default governor.  Floats are stored as JSON numbers, whose
``repr`` round-trips exactly, so the test compares bits.

Not pinned: the execution's ``objective`` label and its ``score()``.
When the fixture was recorded the runtime labelled every execution
``"makespan"`` whatever its objective, so an energy runtime's
``execution.score()`` returned the makespan; the label now follows the
runtime's objective (``tests/core/test_runtime.py`` checks it).

Run from the repo root to rewrite the fixture next to this file::

    PYTHONPATH=src python -m tests.core.make_golden_runtime
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.freqpolicy import Bias
from repro.core.runtime import CoScheduleRuntime
from repro.workload.program import make_jobs
from repro.workload.rodinia import rodinia_programs
from tests.scalar import scalar_context

FIXTURE = Path(__file__).with_name("golden_runtime.json")

CAP_W = 15.0
OBJECTIVES = ("makespan", "energy")
BACKENDS = ("tensor", "scalar")


def _schedule(schedule) -> dict:
    return {
        "cpu": [job.uid for job in schedule.cpu_queue],
        "gpu": [job.uid for job in schedule.gpu_queue],
        "solo": [[job.uid, kind.value] for job, kind in schedule.solo_tail],
    }


def _measured(execution) -> dict:
    return {"makespan_s": execution.makespan_s, "energy_j": execution.energy_j}


def drive() -> dict:
    """Run every runtime policy; return the pinned record."""
    jobs = make_jobs(rodinia_programs()[:6])
    record = {}
    space = None
    for objective in OBJECTIVES:
        for backend in BACKENDS:
            runtime = CoScheduleRuntime(
                jobs, cap_w=CAP_W, objective=objective, space=space
            )
            space = runtime.space
            if backend == "scalar":
                # Every policy builds its context through this method.
                build = runtime.context
                runtime.context = lambda build=build, **kw: scalar_context(
                    build(**kw)
                )
            entry = {}
            for refine in (False, True):
                outcome = runtime.run_hcs(refine=refine)
                entry[outcome.policy] = {
                    "schedule": _schedule(outcome.schedule),
                    **_measured(outcome.execution),
                }
            for bias in (Bias.GPU, Bias.CPU):
                outcome = runtime.run_default(bias=bias)
                entry[outcome.policy] = _measured(outcome.execution)
            entry["random_mean_makespan_s"] = runtime.random_average(
                n=3, seed=0
            ).mean_makespan_s
            entry["lower_bound_s"] = runtime.lower_bound_s()
            hcs = runtime.run_hcs()
            entry["execute"] = _measured(runtime.execute(hcs.schedule))
            record[f"{objective}/{backend}"] = entry
    return record


def main() -> None:
    FIXTURE.write_text(json.dumps(drive(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
