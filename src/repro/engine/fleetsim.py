"""Fleet execution: per-node simulation runs under one wall clock.

:func:`run_fleet` runs each node's schedule through
:func:`~repro.engine.sim.run` on that node's own
:class:`~repro.engine.sim.SimCore`.  Each core simulates in its node's
*native* time — the calibrated APU's physics, unchanged — and the fleet
layer converts at the boundary::

    wall time   = native time / speed_scale
    wall energy = native energy * power_scale / speed_scale

so a ``speed_scale=1.5`` node finishes the same work in two-thirds the
wall time, and its powers (already ``power_scale`` higher) integrate over
the shorter wall interval.  This keeps every node bitwise on the existing
engine: a trivial node (both scales 1.0) reproduces single-APU results
exactly, and the per-node governor — built from the node's
:class:`~repro.core.fleet.NodePredictor` — already enforces the node's
*scaled* power against its resolved cap.

Like the rest of the engine, this module never imports the scheduling
layer at module scope: fleets, nodes, and plans are duck-typed, and the
:func:`run_fleet` convenience imports the core planner lazily.  Scores
come from the leaf :mod:`repro.objective`, as everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.objective import Objective
from repro.units import Joules, PowerScale, SpeedScale, WallSeconds, Watts
from repro.engine.sim import ExecutionResult, Scenario, run


@dataclass(frozen=True)
class NodeExecution:
    """One node's execution, with the wall-clock view of its native record."""

    node: str
    speed_scale: SpeedScale
    power_scale: PowerScale
    result: ExecutionResult

    @property
    def makespan_s(self) -> WallSeconds:
        """Wall-clock makespan of this node's run."""
        return self.result.makespan_s / self.speed_scale

    @property
    def energy_j(self) -> Joules:
        """Wall-clock energy: scaled power over the shortened interval."""
        return self.result.energy_j * self.power_scale / self.speed_scale

    @property
    def flow_s(self) -> WallSeconds:
        """Wall-clock total flow time of this node's completions."""
        return self.result.flow_s / self.speed_scale


@dataclass(frozen=True)
class FleetExecutionResult:
    """Outcome of a fleet execution: per-node records plus wall aggregates.

    Nodes run in parallel on the shared wall clock, so the fleet makespan
    is the max over node wall makespans while energy and flow are sums.
    ``score`` combines them through :meth:`~repro.objective.Objective.score`,
    like :meth:`~repro.engine.sim.ExecutionResult.score`.
    """

    entries: tuple[NodeExecution, ...]
    objective: str = "makespan"
    budget_w: Watts | None = None
    plan: object | None = field(default=None, compare=False)

    @property
    def makespan_s(self) -> WallSeconds:
        return max((e.makespan_s for e in self.entries), default=0.0)

    @property
    def energy_j(self) -> Joules:
        return sum(e.energy_j for e in self.entries)

    @property
    def flow_s(self) -> WallSeconds:
        return sum(e.flow_s for e in self.entries)

    @property
    def edp_js(self) -> float:
        return self.score(Objective.EDP)

    @property
    def violations(self) -> tuple[tuple[str, object], ...]:
        """Every deadline miss, tagged with the node it happened on."""
        return tuple(
            (e.node, v) for e in self.entries for v in e.result.violations
        )

    def score(self, objective: Objective | str | None = None) -> float:
        """Scalar score under an objective (lower is better); ``None``
        scores under the result's own :attr:`objective`."""
        if objective is None:
            objective = self.objective
        return Objective.coerce(objective).score(
            self.makespan_s, self.energy_j, self.flow_s
        )

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "backend": "engine.fleetsim",
            "objective": self.objective,
            "budget_w": self.budget_w,
            "makespan_s": self.makespan_s,
            "energy_j": self.energy_j,
            "flow_s": self.flow_s,
            "score": self.score(),
            "nodes": {
                e.node: {
                    "speed_scale": e.speed_scale,
                    "power_scale": e.power_scale,
                    "makespan_s": e.makespan_s,
                    "energy_j": e.energy_j,
                    "native_makespan_s": e.result.makespan_s,
                    "completions": len(e.result.completions),
                    "deadline_misses": e.result.deadline_misses,
                }
                for e in self.entries
            },
        }


def run_fleet(
    ctx,
    plan=None,
    *,
    method: str = "hcs+",
    record_events: bool = False,
    sanitize: bool | None = None,
    **opts,
) -> FleetExecutionResult:
    """Plan (if needed) and execute a fleet context end to end.

    ``plan`` is a :class:`~repro.core.fleetsched.FleetScheduleResult`
    (duck-typed); when omitted, the core planner is invoked with
    ``method``/``opts``.  Each node's schedule replays through the
    standard :func:`~repro.engine.sim.run` entry point on that node's
    sub-context — so the per-node execution verifier applies under the
    sanitizer — and the per-node records aggregate on the wall clock.
    """
    if plan is None:
        from repro.core.fleetsched import fleet_schedule

        plan = fleet_schedule(ctx, method=method, **opts)

    entries = []
    for a in plan.assignments:
        index = ctx.fleet.index(a.node)
        node = ctx.fleet.nodes[index]
        sub = ctx.node_context(index, jobs=a.jobs)
        result = run(
            sub,
            Scenario.from_schedule(a.schedule),
            record_events=record_events,
            sanitize=sanitize,
        )
        entries.append(
            NodeExecution(
                node=a.node,
                speed_scale=node.speed_scale,
                power_scale=node.power_scale,
                result=result,
            )
        )
    return FleetExecutionResult(
        entries=tuple(entries),
        objective=Objective.coerce(
            getattr(ctx, "objective", Objective.MAKESPAN)
        ).value,
        budget_w=getattr(ctx.fleet, "budget_w", None),
        plan=plan,
    )
