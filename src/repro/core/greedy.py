"""Step 3 of the heuristic: greedy minimum-interference pairing.

The scheduling rule (Section IV-A.1, Figure 3):

* To fill a processor, draw from its preferred set first, then the
  non-preferred set, and only then from the set preferring the other
  processor.
* Bootstrap by placing the *longest* GPU-preferred job on the GPU, then the
  CPU job with the least predicted co-run interference with it.
* Whenever a job finishes, refill its processor with the candidate whose
  predicted interference with the still-running job is smallest —
  interference being the minimal sum of the two degradation percentages
  over all cap-feasible frequency settings (the IV-A.2 change).

The greedy loop replays predicted progress exactly like
:func:`repro.core.schedule.predicted_makespan`, so the resulting queue order
is the one the runtime expects to happen.
"""

from __future__ import annotations

import math

import numpy as np

from repro.hardware.device import DeviceKind
from repro.workload.program import Job
from repro.core.categorize import Categorized, Preference, best_solo_time
from repro.core.context import SchedulingContext
from repro.core.feasibility import context_cap
from repro.core.freqpolicy import ModelGovernor
from repro.model.predictor import CoRunPredictor
from repro.perf.tensor import PairTables

_EPS = 1e-12


def _pool_priority(kind: DeviceKind) -> tuple[Preference, ...]:
    if kind is DeviceKind.CPU:
        return (Preference.CPU, Preference.NONE, Preference.GPU)
    return (Preference.GPU, Preference.NONE, Preference.CPU)


class _ScalarSource:
    """The greedy loop's numbers, asked of the predictor and the governor."""

    def __init__(
        self, predictor: CoRunPredictor, cap_w: float, governor: ModelGovernor
    ) -> None:
        self.predictor = predictor
        self.cap_w = cap_w
        self.governor = governor

    def best_time(self, job: Job, kind: DeviceKind) -> float:
        return best_solo_time(self.predictor, job, kind, self.cap_w)

    def interference(self, cpu_job: Job, gpu_job: Job) -> float:
        ranked = self.governor.min_pair_interference(cpu_job.uid, gpu_job.uid)
        return ranked[0] if ranked is not None else math.inf

    def step_times(
        self, cpu_job: Job | None, gpu_job: Job | None
    ) -> tuple[float, float]:
        """Predicted (CPU, GPU) times of the running jobs at the governor's
        setting; an idle side reads ``inf``."""
        setting = self.governor(cpu_job, gpu_job)
        if cpu_job is not None and gpu_job is not None:
            return self.predictor.corun_times(cpu_job.uid, gpu_job.uid, setting)
        t_c = t_g = math.inf
        if cpu_job is not None:
            t_c = self.predictor.solo_time(cpu_job.uid, DeviceKind.CPU, setting.cpu_ghz)
        if gpu_job is not None:
            t_g = self.predictor.solo_time(gpu_job.uid, DeviceKind.GPU, setting.gpu_ghz)
        return t_c, t_g


class _TableSource:
    """The same numbers read from the governor's :class:`PairTables`.

    The best-solo times and the minimum-interference matrix are gathered
    for this call's rows only, as Python lists.  Step times are the replay
    table's cells, read from the tables' shared value list: a running
    pair's cell, or a solo cell whose idle side reads ``inf``.  The
    greedy loop never steps an infeasible cell: it places no job where
    its best time or its interference reads ``inf``.
    """

    def __init__(self, tables, tensor, uids) -> None:
        index = tensor.index
        masks = tensor.masks(tables.cap_w)
        rows = sorted({index[uid] for uid in uids})
        local = {row: k for k, row in enumerate(rows)}
        self.row = {uid: local[index[uid]] for uid in uids}
        value, _ = tables.interference
        self.value = value[np.ix_(rows, rows)].tolist()
        self.best = {k: masks.best_solo_time[k][rows].tolist() for k in DeviceKind}
        self.values = tables.replay_values
        width, idle = tables.width, tables.width - 1
        # Offsets into the values by uid (cell c·width + g starts at 3x
        # that); ``None`` (an idle side) is the sentinel.
        self.cpu_cell = {uid: 3 * width * index[uid] for uid in uids}
        self.cpu_cell[None] = 3 * width * idle
        self.gpu_cell = {uid: 3 * index[uid] for uid in uids}
        self.gpu_cell[None] = 3 * idle

    def best_time(self, job: Job, kind: DeviceKind) -> float:
        return self.best[kind][self.row[job.uid]]

    def interference(self, cpu_job: Job, gpu_job: Job) -> float:
        return self.value[self.row[cpu_job.uid]][self.row[gpu_job.uid]]

    def step_times(
        self, cpu_job: Job | None, gpu_job: Job | None
    ) -> tuple[float, float]:
        c = self.cpu_cell[None if cpu_job is None else cpu_job.uid]
        g = self.gpu_cell[None if gpu_job is None else gpu_job.uid]
        return self.values[c + g], self.values[c + g + 1]


def pairing_source(
    ctx: SchedulingContext, governor: ModelGovernor
) -> _ScalarSource | _TableSource:
    """Step 3's numbers for the jobs of single-node context ``ctx``.

    The table source when the tables attached to ``governor``
    (:meth:`PairTables.attach`) answer every job at the context's cap,
    else the scalar one over ``ctx.predictor``; both give the same
    floats.  ``governor`` is the context's own or another over
    ``ctx.predictor`` (the online policy ranks by the makespan governor
    under every objective).  Each source answers ``best_time(job, kind)``
    (``inf`` where the job cannot run under the cap),
    ``interference(cpu_job, gpu_job)`` and ``step_times``.
    """
    predictor, cap_w = ctx.predictor, context_cap(ctx)
    served = PairTables.serving(governor)
    if served is not None and governor.predictor is predictor:
        tables, tensor = served
        uids = [job.uid for job in ctx.jobs]
        if tables.cap_w == cap_w and all(uid in tensor.index for uid in uids):
            return _TableSource(tables, tensor, uids)
    return _ScalarSource(predictor, cap_w, governor)


class _GreedyState:
    def __init__(
        self, categorized: Categorized, source: _ScalarSource | _TableSource
    ) -> None:
        self._best_time = source.best_time
        self._pair_cost = source.interference
        self.pools: dict[Preference, list[Job]] = {
            Preference.CPU: list(categorized.cpu_preferred),
            Preference.GPU: list(categorized.gpu_preferred),
            Preference.NONE: list(categorized.non_preferred),
        }

    def empty(self) -> bool:
        return not any(self.pools.values())

    def _interference(self, job: Job, kind: DeviceKind, other: Job) -> float:
        if kind is DeviceKind.CPU:
            return self._pair_cost(job, other)
        return self._pair_cost(other, job)

    def _other_side_span(self, kind: DeviceKind, other_remaining_s: float) -> float:
        """Projected wall time the *other* processor still needs.

        Counts the other side's currently running remainder plus every job
        still in the pools, timed on the other device — the work that will
        flow there if ``kind`` stops pulling.
        """
        other_kind = kind.other
        span = other_remaining_s
        for pool in self.pools.values():
            for job in pool:
                span += self._best_time(job, other_kind)
        return span

    def pick(
        self,
        kind: DeviceKind,
        other: Job | None,
        other_remaining_s: float = 0.0,
    ) -> Job | None:
        """Draw the next job for ``kind`` under the scheduling rule.

        Jobs from ``kind``'s own preferred set are always taken.  A
        non-preferred or other-preferred job is only *stolen* when it would
        finish within the other processor's projected remaining span —
        otherwise the steal lengthens the makespan by construction (the job
        runs slower here than the wait for its preferred processor costs),
        so the processor is deliberately left idle, as Definition 2.1's
        schedules permit.  A job is never drawn where it has no feasible
        level (it may end up running alone) nor beside a partner no pair
        setting fits (its interference reads ``inf``).
        """
        own_pref = _pool_priority(kind)[0]
        for pref in _pool_priority(kind):
            pool = self.pools[pref]
            candidates = [
                j
                for j in pool
                if self._best_time(j, kind) < math.inf
                and (other is None or self._interference(j, kind, other) < math.inf)
            ]
            if not candidates:
                continue
            stealing = pref is not own_pref
            if stealing:
                if other is None and other_remaining_s <= 0.0:
                    # Both processors idle: the job must be issued now, so
                    # the only question is whether *this* device is its
                    # faster home (the other side's pick will catch it
                    # otherwise).
                    candidates = [
                        j
                        for j in candidates
                        if self._best_time(j, kind)
                        <= self._best_time(j, kind.other)
                    ]
                else:
                    span = self._other_side_span(kind, other_remaining_s)
                    # Stealing candidate j relieves the other side of j's
                    # own time there, so compare against the span without j.
                    candidates = [
                        j
                        for j in candidates
                        if self._best_time(j, kind)
                        <= span - self._best_time(j, kind.other)
                    ]
                if not candidates:
                    continue
            if stealing and pref is not Preference.NONE:
                # Stolen other-preferred jobs pay a migration penalty; take
                # the one *least relatively penalized* (smallest ratio of
                # its time here to its time on its preferred processor)
                # rather than the least-interfering one — the interference
                # of a 3x-slower placement is never worth it.
                job = min(
                    candidates,
                    key=lambda j: self._best_time(j, kind)
                    / max(self._best_time(j, kind.other), 1e-9),
                )
            elif other is None:
                # Nothing to pair against: take the longest job, which gives
                # later picks the most co-run surface to exploit (this is
                # also the paper's bootstrap rule on the GPU side).
                job = max(candidates, key=lambda j: self._best_time(j, kind))
            else:
                job = min(
                    candidates, key=lambda j: self._interference(j, kind, other)
                )
            pool.remove(job)
            return job
        return None


def greedy_schedule(
    source: _ScalarSource | _TableSource, categorized: Categorized
) -> tuple[list[Job], list[Job]]:
    """Run the greedy pairing loop; returns the (CPU, GPU) queue orders.

    The loop reads its numbers from ``source`` — :func:`pairing_source`
    over (at least) the categorized jobs: the governor's
    :class:`~repro.perf.tensor.PairTables` when they cover every job,
    otherwise the scalar predictor and governor.  Both give the same
    floats, so the queue orders are identical.
    """
    state = _GreedyState(categorized, source)
    cpu_order: list[Job] = []
    gpu_order: list[Job] = []

    def remaining_estimate(cur: tuple[Job, float] | None, kind: DeviceKind) -> float:
        """Rough wall time the side's current job still needs."""
        if cur is None:
            return 0.0
        return cur[1] * state._best_time(cur[0], kind)

    # Bootstrap: longest GPU-preferred job to the GPU first.
    cur_g_job = state.pick(DeviceKind.GPU, None)
    boot_remaining = (
        state._best_time(cur_g_job, DeviceKind.GPU) if cur_g_job else 0.0
    )
    cur_c_job = state.pick(DeviceKind.CPU, cur_g_job, boot_remaining)
    cur_g = (cur_g_job, 1.0) if cur_g_job else None
    cur_c = (cur_c_job, 1.0) if cur_c_job else None
    if cur_g_job:
        gpu_order.append(cur_g_job)
    if cur_c_job:
        cpu_order.append(cur_c_job)

    while cur_c is not None or cur_g is not None:
        t_c, t_g = source.step_times(
            cur_c[0] if cur_c else None, cur_g[0] if cur_g else None
        )

        dts = []
        if cur_c is not None:
            dts.append(cur_c[1] * t_c)
        if cur_g is not None:
            dts.append(cur_g[1] * t_g)
        dt = min(dts)

        if cur_c is not None:
            rem = cur_c[1] - dt / t_c
            cur_c = None if rem <= _EPS else (cur_c[0], rem)
        if cur_g is not None:
            rem = cur_g[1] - dt / t_g
            cur_g = None if rem <= _EPS else (cur_g[0], rem)

        # Refill whichever processor went idle.
        if cur_c is None:
            nxt = state.pick(
                DeviceKind.CPU,
                cur_g[0] if cur_g else None,
                remaining_estimate(cur_g, DeviceKind.GPU),
            )
            if nxt is not None:
                cpu_order.append(nxt)
                cur_c = (nxt, 1.0)
        if cur_g is None:
            nxt = state.pick(
                DeviceKind.GPU,
                cur_c[0] if cur_c else None,
                remaining_estimate(cur_c, DeviceKind.CPU),
            )
            if nxt is not None:
                gpu_order.append(nxt)
                cur_g = (nxt, 1.0)

    assert state.empty(), "greedy loop ended with unscheduled jobs"
    return cpu_order, gpu_order
