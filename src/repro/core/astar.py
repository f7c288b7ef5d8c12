"""A*-search co-scheduling (the comparator the paper discusses).

The paper's related work cites Tian et al.'s A*-search for co-scheduling on
homogeneous multicores and argues it does not answer the heterogeneous
questions (placement, per-pair frequencies under a cap).  This module
*extends* A* to do exactly that, as a strong search-based comparator for
HCS: it explores queue prefixes of the Definition 2.1 schedule space under
the same predicted performance model and the same cap-aware governor.

Search formulation
------------------

A node is a partially executed predicted timeline: the set of unscheduled
jobs, the job currently running on each processor with its remaining work
fraction, and the elapsed predicted time.  Expanding a node advances the
timeline to the next completion; the branching decision is which remaining
job to hand the idle processor (or to close that processor's queue —
allowing schedules that deliberately leave one side idle, which Definition
2.1 permits).

``g`` is the elapsed predicted time.  The default heuristic ``h`` is the
paper's own lower-bound arithmetic restricted to the unfinished work: half
the sum over remaining jobs of ``min(best co-run time, 2 x best standalone
time)``, which under-estimates the remaining makespan for the same reason
Section IV-B's bound under-estimates the total.  ``h = 0`` degenerates to
uniform-cost search and is guaranteed optimal under the predicted model;
tests cross-check the default heuristic against it.

Complexity is exponential (the problem is NP-hard); the search is intended
for ≤ 8-job instances and supports a node budget with graceful fallback to
the best completed node so far.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

from repro.errors import InfeasibleCapError
from repro.hardware.device import DeviceKind
from repro.core.bounds import lower_bound
from repro.core.context import SchedulingContext
from repro.core.schedule import CoSchedule

_EPS = 1e-9


@dataclass(frozen=True)
class _Node:
    """One partial predicted timeline."""

    remaining: frozenset          # uids not yet started
    cpu_job: str | None           # running CPU job (uid) or None
    cpu_frac: float               # its remaining work fraction
    gpu_job: str | None
    gpu_frac: float
    cpu_closed: bool              # True once the CPU queue is sealed
    gpu_closed: bool
    elapsed: float
    cpu_order: tuple[str, ...]    # queue prefixes chosen so far
    gpu_order: tuple[str, ...]

    @property
    def done(self) -> bool:
        return (
            not self.remaining and self.cpu_job is None and self.gpu_job is None
        )


@dataclass(order=True)
class _QueueEntry:
    priority: float
    tiebreak: int
    node: _Node = field(compare=False)


class AStarScheduler:
    """Cap-aware A* search over two-queue co-schedules."""

    def __init__(
        self,
        ctx: SchedulingContext,
        *,
        use_heuristic: bool = True,
        node_budget: int = 200_000,
    ) -> None:
        # Expansion re-queries the same (pair, setting) degradations along
        # every branch of the search tree; build the context over a shared
        # EvalCache (``SchedulingContext.build(..., cache=...)`` wraps the
        # predictor) to reuse answers computed by HCS/GA/refinement.
        self.predictor = ctx.predictor
        self.jobs = {j.uid: j for j in ctx.jobs}
        if len(self.jobs) != len(ctx.jobs):
            raise ValueError("job uids must be unique")
        from repro.core.feasibility import context_cap

        self.cap_w = context_cap(ctx)
        # g is always the elapsed predicted time; a non-makespan context
        # still steers the search through its governor's frequency picks.
        self.governor = ctx.governor
        self.use_heuristic = use_heuristic
        self.node_budget = node_budget
        self._h_cache: dict[frozenset, float] = {}
        # Per-job T_low contributions, from the context's tensor model
        # when it has one.
        _, details = lower_bound(ctx)
        self._contribution = {d.job: d.contribution_s for d in details}

    # ------------------------------------------------------------------
    # Heuristic
    # ------------------------------------------------------------------

    def _heuristic(self, node: _Node) -> float:
        if not self.use_heuristic:
            return 0.0
        key = node.remaining
        if key not in self._h_cache:
            self._h_cache[key] = 0.5 * sum(
                self._contribution[uid] for uid in key
            )
        h = self._h_cache[key]
        # Work still held by the running jobs also bounds the remaining span.
        running = 0.0
        if node.cpu_job is not None:
            running += 0.5 * node.cpu_frac * self._contribution[node.cpu_job]
        if node.gpu_job is not None:
            running += 0.5 * node.gpu_frac * self._contribution[node.gpu_job]
        return h + running

    # ------------------------------------------------------------------
    # Timeline advancement (mirrors core.schedule.predicted_makespan)
    # ------------------------------------------------------------------
    def _rates(self, node: _Node) -> tuple[float | None, float | None]:
        """Full predicted completion times for the running pair."""
        cpu_job = self.jobs[node.cpu_job] if node.cpu_job else None
        gpu_job = self.jobs[node.gpu_job] if node.gpu_job else None
        setting = self.governor(cpu_job, gpu_job)
        if cpu_job is not None and gpu_job is not None:
            return self.predictor.corun_times(cpu_job.uid, gpu_job.uid, setting)
        if cpu_job is not None:
            return (
                self.predictor.solo_time(
                    cpu_job.uid, DeviceKind.CPU, setting.cpu_ghz
                ),
                None,
            )
        if gpu_job is not None:
            return (
                None,
                self.predictor.solo_time(
                    gpu_job.uid, DeviceKind.GPU, setting.gpu_ghz
                ),
            )
        return None, None

    def _advance(self, node: _Node) -> _Node | None:
        """Advance the timeline until at least one processor goes idle;
        ``None`` when no setting fits the running combination under the
        cap (a move the search prunes)."""
        try:
            t_c, t_g = self._rates(node)
        except InfeasibleCapError:
            return None
        dts = []
        if node.cpu_job is not None:
            dts.append(node.cpu_frac * t_c)
        if node.gpu_job is not None:
            dts.append(node.gpu_frac * t_g)
        if not dts:
            return node
        dt = min(dts)

        cpu_job, cpu_frac = node.cpu_job, node.cpu_frac
        gpu_job, gpu_frac = node.gpu_job, node.gpu_frac
        if cpu_job is not None:
            cpu_frac -= dt / t_c
            if cpu_frac <= _EPS:
                cpu_job, cpu_frac = None, 0.0
        if gpu_job is not None:
            gpu_frac -= dt / t_g
            if gpu_frac <= _EPS:
                gpu_job, gpu_frac = None, 0.0
        return _Node(
            remaining=node.remaining,
            cpu_job=cpu_job,
            cpu_frac=cpu_frac,
            gpu_job=gpu_job,
            gpu_frac=gpu_frac,
            cpu_closed=node.cpu_closed,
            gpu_closed=node.gpu_closed,
            elapsed=node.elapsed + dt,
            cpu_order=node.cpu_order,
            gpu_order=node.gpu_order,
        )

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def _successors(self, node: _Node):
        """Fill an idle processor of a node that :meth:`_needs_fill` with
        every remaining job (or close it)."""
        # Fill one side per expansion; the successor re-enters expansion
        # if the other side is idle too.
        side = "cpu" if node.cpu_job is None and not node.cpu_closed else "gpu"
        for uid in sorted(node.remaining):
            if side == "cpu":
                yield _Node(
                    remaining=node.remaining - {uid},
                    cpu_job=uid,
                    cpu_frac=1.0,
                    gpu_job=node.gpu_job,
                    gpu_frac=node.gpu_frac,
                    cpu_closed=False,
                    gpu_closed=node.gpu_closed,
                    elapsed=node.elapsed,
                    cpu_order=node.cpu_order + (uid,),
                    gpu_order=node.gpu_order,
                )
            else:
                yield _Node(
                    remaining=node.remaining - {uid},
                    cpu_job=node.cpu_job,
                    cpu_frac=node.cpu_frac,
                    gpu_job=uid,
                    gpu_frac=1.0,
                    cpu_closed=node.cpu_closed,
                    gpu_closed=False,
                    elapsed=node.elapsed,
                    cpu_order=node.cpu_order,
                    gpu_order=node.gpu_order + (uid,),
                )
        # Close the side: no further jobs will be placed there.
        yield _Node(
            remaining=node.remaining,
            cpu_job=node.cpu_job,
            cpu_frac=node.cpu_frac,
            gpu_job=node.gpu_job,
            gpu_frac=node.gpu_frac,
            cpu_closed=node.cpu_closed or side == "cpu",
            gpu_closed=node.gpu_closed or side == "gpu",
            elapsed=node.elapsed,
            cpu_order=node.cpu_order,
            gpu_order=node.gpu_order,
        )

    def _needs_fill(self, node: _Node) -> bool:
        return bool(node.remaining) and (
            (node.cpu_job is None and not node.cpu_closed)
            or (node.gpu_job is None and not node.gpu_closed)
        )

    def _stuck(self, node: _Node) -> bool:
        """Both sides closed with jobs left over: a dead end."""
        return bool(node.remaining) and node.cpu_closed and node.gpu_closed

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self) -> tuple[CoSchedule, float, int]:
        """Run the search.

        Returns ``(schedule, predicted makespan, nodes expanded)``.  When
        the node budget is exhausted, the best *completed* candidate found
        so far is returned (there is always one: the first dive reaches a
        goal quickly).
        """
        start = _Node(
            remaining=frozenset(self.jobs),
            cpu_job=None,
            cpu_frac=0.0,
            gpu_job=None,
            gpu_frac=0.0,
            cpu_closed=False,
            gpu_closed=False,
            elapsed=0.0,
            cpu_order=(),
            gpu_order=(),
        )
        counter = itertools.count()
        frontier = [_QueueEntry(self._heuristic(start), next(counter), start)]
        best_goal: _Node | None = None
        best_goal_cost = math.inf
        expanded = 0

        while frontier and expanded < self.node_budget:
            entry = heapq.heappop(frontier)
            node = entry.node
            if entry.priority >= best_goal_cost - _EPS:
                break  # nothing cheaper can remain
            if node.done:
                if node.elapsed < best_goal_cost:
                    best_goal, best_goal_cost = node, node.elapsed
                continue
            if self._stuck(node):
                continue
            expanded += 1
            if self._needs_fill(node):
                children = self._successors(node)
            else:
                children = [self._advance(node)]
            for child in children:
                if child is None or self._stuck(child):
                    continue
                priority = child.elapsed + self._heuristic(child)
                if priority < best_goal_cost - _EPS:
                    heapq.heappush(
                        frontier, _QueueEntry(priority, next(counter), child)
                    )

        if best_goal is None:
            raise RuntimeError(
                "A* completed no cap-feasible two-queue schedule within its "
                "node budget"
            )
        schedule = CoSchedule(
            cpu_queue=tuple(self.jobs[uid] for uid in best_goal.cpu_order),
            gpu_queue=tuple(self.jobs[uid] for uid in best_goal.gpu_order),
        )
        return schedule, best_goal_cost, expanded


def astar_schedule(
    ctx: SchedulingContext,
    *,
    use_heuristic: bool = True,
    node_budget: int = 200_000,
) -> tuple[CoSchedule, float, int]:
    """Convenience wrapper around :class:`AStarScheduler`."""
    return AStarScheduler(
        ctx, use_heuristic=use_heuristic, node_budget=node_budget
    ).search()
