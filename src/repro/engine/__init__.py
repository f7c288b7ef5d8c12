"""Ground-truth execution engine.

This subpackage is the reproduction's stand-in for *running programs on the
real machine*: it turns program profiles plus an operating point into times,
bandwidth demands, and powers.

* :mod:`repro.engine.standalone` — solo runs (phase-resolved).
* :mod:`repro.engine.corun` — steady-state co-run simulation of a CPU/GPU
  pair with event-driven phase overlap; produces the measured degradations
  and powers that the paper's model is judged against.
* :mod:`repro.engine.sim` — the discrete-event simulation core behind the
  unified :func:`run` entry point: arrival/completion/cap-change/deadline
  events, preemption and CPU<->GPU migration with penalty models, and a
  pluggable rescheduling policy hook.
* :mod:`repro.engine.multiprog` — the n-resident time-sharing loop behind
  ``Scenario.timeshare`` (the Default baseline's progress model).
* :mod:`repro.engine.feedback` — RAPL-style reactive cap control, run on
  the simulation core as a periodic ``CAP_CHANGE`` controller.

The deprecated shim entry points (``execute_schedule``, ``execute_online``,
``execute_with_arrivals``, ``execute_default_schedule``) have been removed
after their one-release grace period; :func:`run` with the matching
:class:`~repro.engine.sim.Scenario` constructor is the only entry point
(the REP007 lint rule flags any reintroduction).

The engine is *the machine*: scheduler-side code must never peek at profile
internals (phases, sensitivities); it may only call the engine the way the
paper's runtime could measure the hardware.
"""

from repro.engine.standalone import (
    PhaseTiming,
    StandaloneRun,
    phase_timings,
    solve_compute_base,
    standalone_power_w,
    standalone_run,
)
from repro.engine.corun import CoRunResult, corun_pair, steady_degradation
from repro.engine.events import EventKind, SimEvent
from repro.engine.sim import (
    DeadlineMiss,
    DeviceInterval,
    ExecutionResult,
    JobSpec,
    PenaltyModel,
    PreemptionRecord,
    Scenario,
    SimCore,
    run,
)
from repro.engine.feedback import ReactiveCapController, execute_with_reactive_cap
from repro.engine.fleetsim import FleetExecutionResult, NodeExecution, run_fleet

__all__ = [
    "PhaseTiming",
    "StandaloneRun",
    "phase_timings",
    "standalone_run",
    "standalone_power_w",
    "solve_compute_base",
    "CoRunResult",
    "corun_pair",
    "steady_degradation",
    "EventKind",
    "SimEvent",
    "DeadlineMiss",
    "DeviceInterval",
    "ExecutionResult",
    "JobSpec",
    "PenaltyModel",
    "PreemptionRecord",
    "Scenario",
    "SimCore",
    "run",
    "ReactiveCapController",
    "execute_with_reactive_cap",
    "FleetExecutionResult",
    "NodeExecution",
    "run_fleet",
]
