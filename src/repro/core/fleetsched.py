"""Fleet scheduling driver: place jobs across nodes, schedule each node.

A multi-node :class:`~repro.core.context.SchedulingContext` is a placement
problem stacked on top of the paper's single-APU co-scheduling problem.
This driver solves it in two phases:

1. **Placement** — greedy longest-processing-time list scheduling: jobs are
   weighted by their fastest cap-feasible standalone time *on each node*
   (so a 1.5x node attracts proportionally more work, and a node whose cap
   cannot run a job at any level never receives it), sorted by descending
   weight, and assigned one at a time to the node with the least projected
   load.
2. **Per-node co-scheduling** — each node's jobs are handed to the chosen
   registry method on a single-node sub-context derived with
   :meth:`~repro.core.context.SchedulingContext.node_context` (the node's
   scaling, resolved cap, fresh cache, per-node seed).  Every registry
   method, both backends, and all objectives work unchanged.

Aggregation is objective-aware: makespan is the max over nodes (they run
in parallel), energy and flow are sums, and the composite objectives
combine those aggregates through
:meth:`~repro.objective.Objective.score`.

Sanitizing contexts referee both levels: each per-node schedule passes
through the standard Definition 2.1 verifier, and the fleet result through
:func:`repro.analysis.invariants.check_fleet_schedule` (partition
integrity, per-node caps, shared-budget accounting).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from collections.abc import Mapping, Sequence

from repro.errors import InfeasibleCapError
from repro.hardware.device import DeviceKind
from repro.workload.program import Job
from repro.core.context import SchedulingContext
from repro.core.greedy import pairing_source
from repro.objective import Objective
from repro.core.schedule import PredictedMetrics

_INF = float("inf")


@dataclass(frozen=True)
class NodeAssignment:
    """One node's slice of a fleet schedule."""

    node: str
    jobs: tuple[Job, ...]
    result: object  #: the node's :class:`~repro.core.api.ScheduleResult`
    metrics: PredictedMetrics

    @property
    def schedule(self):
        return self.result.schedule


@dataclass(frozen=True)
class FleetScheduleResult:
    """A fleet-wide schedule: per-node co-schedules plus aggregate scores.

    ``predicted_makespan_s`` is the max over nodes (nodes run in
    parallel); ``predicted_energy_j`` and ``predicted_flow_s`` are sums;
    ``predicted_score`` combines them under the objective.  Nodes that
    received no jobs appear in ``idle_nodes`` rather than
    ``assignments``.
    """

    method: str
    fleet: object
    objective: Objective
    assignments: tuple[NodeAssignment, ...]
    idle_nodes: tuple[str, ...] = ()
    predicted_makespan_s: float = 0.0
    predicted_energy_j: float = 0.0
    predicted_flow_s: float = 0.0
    predicted_score: float = 0.0
    details: Mapping[str, object] = field(
        default_factory=lambda: MappingProxyType({})
    )

    def assignment(self, node: str) -> NodeAssignment:
        for a in self.assignments:
            if a.node == node:
                return a
        raise KeyError(f"node {node!r} has no assignment")

    def describe(self) -> str:
        lines = []
        for a in self.assignments:
            lines.append(
                f"== {a.node} ({len(a.jobs)} jobs, "
                f"makespan {a.metrics.makespan_s:.3f} s) =="
            )
            lines.append(a.schedule.describe())
        if self.idle_nodes:
            lines.append("idle: " + ", ".join(self.idle_nodes))
        return "\n".join(lines)


def aggregate_score(
    objective: Objective, metrics: Sequence[PredictedMetrics]
) -> tuple[float, float, float, float]:
    """(makespan, energy, flow, objective score) across parallel nodes."""
    makespan = max((m.makespan_s for m in metrics), default=0.0)
    energy = sum(m.energy_j for m in metrics)
    flow = sum(m.flow_s for m in metrics)
    return makespan, energy, flow, objective.score(makespan, energy, flow)


def _job_weights(
    ctx: SchedulingContext, node_ctxs: Sequence[SchedulingContext]
) -> dict[str, list[float]]:
    """Fastest cap-feasible standalone time of each job on each node.

    ``inf`` marks a (job, node) pair the node's cap cannot run at any
    level on either device — placement never selects it.  Each node's
    times come from its Step 3 source, the node model's best-solo
    reduction when the sub-context is tensor-served.
    """
    sources = [pairing_source(nctx, nctx.governor) for nctx in node_ctxs]
    weights: dict[str, list[float]] = {}
    for job in ctx.jobs:
        per_node = [
            min(source.best_time(job, kind) for kind in DeviceKind)
            for source in sources
        ]
        if all(w == _INF for w in per_node):
            raise InfeasibleCapError(
                f"{job.uid} cannot run on any fleet node under its cap",
                jobs=(job.uid,),
            )
        weights[job.uid] = per_node
    return weights


def place_jobs(
    ctx: SchedulingContext,
    node_ctxs: Sequence[SchedulingContext] | None = None,
) -> list[list[Job]]:
    """Greedy LPT placement of the context's jobs onto its fleet's nodes.

    Deterministic: jobs are processed in descending weight order (ties by
    uid), each landing on the feasible node with the least projected load
    (ties by node order).  Returns one job list per node, in fleet order.
    """
    fleet = ctx.fleet
    if node_ctxs is None:
        node_ctxs = [
            ctx.node_context(i, jobs=ctx.jobs) for i in range(len(fleet.nodes))
        ]
    weights = _job_weights(ctx, node_ctxs)
    order = sorted(
        ctx.jobs,
        key=lambda j: (
            -min(w for w in weights[j.uid] if w != _INF),
            j.uid,
        ),
    )
    loads = [0.0] * len(fleet.nodes)
    buckets: list[list[Job]] = [[] for _ in fleet.nodes]
    for job in order:
        per_node = weights[job.uid]
        best_i = min(
            (i for i in range(len(fleet.nodes)) if per_node[i] != _INF),
            key=lambda i: (loads[i] + per_node[i], i),
        )
        buckets[best_i].append(job)
        loads[best_i] += per_node[best_i]
    return buckets


def fleet_schedule(
    ctx: SchedulingContext, method: str = "hcs+", **opts
) -> FleetScheduleResult:
    """Schedule a multi-node context's jobs across its fleet.

    Works on single-node contexts too (placement is then trivial), so
    callers can treat every fleet uniformly.  ``method`` and ``opts`` are
    the registry vocabulary of :func:`repro.core.api.schedule`.
    """
    from repro.core.api import _adapter, dispatch

    _adapter(method)  # unknown methods fail before placement
    key = method.lower()

    fleet = ctx.fleet
    node_ctxs = [
        ctx.node_context(i, jobs=ctx.jobs) for i in range(len(fleet.nodes))
    ]
    buckets = place_jobs(ctx, node_ctxs)

    assignments = []
    idle = []
    for i, node in enumerate(fleet.nodes):
        jobs = buckets[i]
        if not jobs:
            idle.append(node.name)
            continue
        sub = ctx.node_context(i, jobs=jobs)
        result = dispatch(sub, key, **opts)
        metrics = sub.metrics(result.schedule)
        assignments.append(
            NodeAssignment(
                node=node.name,
                jobs=tuple(jobs),
                result=result,
                metrics=metrics,
            )
        )
    makespan, energy, flow, score = aggregate_score(
        ctx.objective, [a.metrics for a in assignments]
    )
    out = FleetScheduleResult(
        method=key,
        fleet=fleet,
        objective=ctx.objective,
        assignments=tuple(assignments),
        idle_nodes=tuple(idle),
        predicted_makespan_s=makespan,
        predicted_energy_j=energy,
        predicted_flow_s=flow,
        predicted_score=score,
    )
    if ctx.sanitizing:
        from repro.analysis.invariants import check_fleet_schedule

        check_fleet_schedule(ctx, out, where=f"fleet:{key}")
    return out
