"""Fleet execution: per-node simulation cores under one wall clock.

A fleet runs one :class:`~repro.engine.sim.SimCore` per node.  Each core
simulates in its node's *native* time — the calibrated APU's physics,
unchanged — and the fleet layer converts at the boundary::

    wall time   = native time / speed_scale
    wall energy = native energy * power_scale / speed_scale

so a ``speed_scale=1.5`` node finishes the same work in two-thirds the
wall time, and its powers (already ``power_scale`` higher) integrate over
the shorter wall interval.  This keeps every node bitwise on the existing
engine: a trivial node (both scales 1.0) reproduces single-APU results
exactly, and the per-node governor — built from the node's
:class:`~repro.core.fleet.NodePredictor` — already enforces the node's
*scaled* power against its resolved cap.

Cross-node migration moves a checkpoint between cores with
:meth:`~repro.engine.sim.SimCore.export_checkpoint` /
:meth:`~repro.engine.sim.SimCore.adopt_checkpoint`; progress travels as
work fractions (device-independent), and the adopting core prices the
move through its own :class:`~repro.engine.sim.PenaltyModel` — a foreign
checkpoint always pays ``migrate_s`` on top of the checkpoint/restart
cost, even when it lands on the same device kind.

Like the rest of the engine, this module never imports the scheduling
layer at module scope: fleets, nodes, and plans are duck-typed, and the
:func:`run_fleet` convenience imports the core planner lazily.  Scores
come from the leaf :mod:`repro.objective`, as everywhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.objective import Objective
from repro.units import Joules, PowerScale, SpeedScale, WallSeconds, Watts
from repro.workload.program import Job
from repro.engine.sim import (
    ExecutionResult,
    FixedSchedulePolicy,
    PenaltyModel,
    Scenario,
    SimCore,
    run,
)



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

    def node_result(self, node: str) -> ExecutionResult:
        for e in self.entries:
            if e.node == node:
                return e.result
        raise KeyError(f"node {node!r} has no execution record")

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


class FleetSim:
    """Live multi-core façade: one :class:`SimCore` per fleet node.

    Wraps a *multi-node* scheduling context (duck-typed — anything with a
    ``fleet`` of named, scaled nodes and a ``node_context`` factory).
    Callers address nodes by name, always in **wall-clock** seconds; the
    façade converts to each core's native time at the boundary.

    Typical use::

        fsim = FleetSim(ctx)
        fsim.load_schedule("node0", plan.assignment("node0").schedule)
        ...
        fsim.advance_to(math.inf)
        result = fsim.record()

    Mid-run, :meth:`migrate_job` checkpoints a suspended job out of one
    node's core and adopts it into another's, paying the destination's
    migration penalty on resume.
    """

    def __init__(
        self,
        ctx,
        *,
        penalties: PenaltyModel | None = None,
        record_events: bool = False,
    ):
        fleet = getattr(ctx, "fleet", None)
        if fleet is None:
            raise TypeError("FleetSim needs a context carrying a fleet")
        self.ctx = ctx
        self.fleet = fleet
        self._nodes = {n.name: n for n in fleet.nodes}
        self._cores: dict[str, SimCore] = {}
        self._policies: dict[str, object] = {}
        for i, node in enumerate(fleet.nodes):
            sub = ctx.node_context(i, jobs=ctx.jobs)
            self._cores[node.name] = SimCore(
                sub.processor,
                sub.governor,
                penalties=penalties,
                record_events=record_events,
            )

    # ------------------------------------------------------------------
    def core(self, node: str) -> SimCore:
        try:
            return self._cores[node]
        except KeyError:
            raise KeyError(f"no node named {node!r} in the fleet") from None

    def _speed(self, node: str) -> SpeedScale:
        return self._nodes[node].speed_scale

    def wall_now(self, node: str) -> WallSeconds:
        """The node's clock, in wall seconds."""
        return self.core(node).now / self._speed(node)

    @property
    def now(self) -> WallSeconds:
        """The fleet wall clock: the furthest any node has advanced."""
        return max(
            (self.wall_now(name) for name in self._cores), default=0.0
        )

    @property
    def idle(self) -> bool:
        return all(core.idle for core in self._cores.values())

    # ------------------------------------------------------------------
    def add_arrival(
        self,
        node: str,
        job: Job,
        at_s: WallSeconds,
        *,
        deadline_s: WallSeconds | None = None,
    ) -> None:
        """Register a wall-clock arrival (and deadline) on one node."""
        speed = self._speed(node)
        self.core(node).add_arrival(
            job,
            at_s * speed,
            deadline_s=None if deadline_s is None else deadline_s * speed,
        )

    def load_schedule(self, node: str, schedule) -> None:
        """Queue a fixed co-schedule on one node (arrivals at wall t=0)."""
        cpu_q = list(schedule.cpu_queue)
        gpu_q = list(schedule.gpu_queue)
        solo = list(schedule.solo_tail)
        core = self.core(node)
        for job in cpu_q + gpu_q + [j for j, _ in solo]:
            core.add_arrival(job, 0.0)
        self._policies[node] = FixedSchedulePolicy(cpu_q, gpu_q, solo)

    def set_policy(self, node: str, policy) -> None:
        """Install the placement policy consulted when ``node`` goes idle."""
        self._policies[node] = policy

    # ------------------------------------------------------------------
    def advance_to(self, until_s: WallSeconds = math.inf) -> None:
        """Advance every node's core to wall time ``until_s``."""
        for name, core in self._cores.items():
            policy = self._policies.get(name)
            if policy is None and core.idle:
                continue
            if policy is None:
                raise ValueError(
                    f"node {name!r} has work but no policy; call "
                    "load_schedule() or set_policy() first"
                )
            core.advance(policy, until_s * self._speed(name))

    def migrate_job(self, uid: str, src: str, dst: str) -> None:
        """Move a suspended job's checkpoint from ``src`` to ``dst``.

        The job must already be preempted (suspended) on ``src`` — the
        caller decides *when* by preempting through the source core.  Its
        deadline, if any, is re-expressed on the destination's native
        clock; the destination prices the resume as a migration.
        """
        if src == dst:
            raise ValueError("source and destination node are the same")
        src_core, dst_core = self.core(src), self.core(dst)
        deadline = src_core.deadlines.get(uid)
        state = src_core.export_checkpoint(uid)
        wall = None
        if deadline is not None:
            wall = deadline / self._speed(src)
        dst_core.adopt_checkpoint(
            state,
            deadline_s=None if wall is None else wall * self._speed(dst),
        )
        # A fixed-schedule destination must also learn about the newcomer,
        # or its policy would starve the adopted checkpoint forever.
        policy = self._policies.get(dst)
        enqueue = getattr(policy, "enqueue", None)
        if enqueue is not None:
            enqueue(state.job, state.kind)

    # ------------------------------------------------------------------
    def record(self, *, objective: str | None = None) -> FleetExecutionResult:
        """The fleet execution so far, as one aggregated record."""
        if objective is None:
            objective = Objective.coerce(
                getattr(self.ctx, "objective", Objective.MAKESPAN)
            ).value
        entries = tuple(
            NodeExecution(
                node=name,
                speed_scale=self._nodes[name].speed_scale,
                power_scale=self._nodes[name].power_scale,
                result=self._cores[name].record(objective=objective),
            )
            for name in self._cores
        )
        return FleetExecutionResult(
            entries=entries,
            objective=objective,
            budget_w=getattr(self.fleet, "budget_w", None),
        )


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
