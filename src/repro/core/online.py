"""Online scheduling policies for open (arrival-driven) systems.

Every policy is a ``(kind, available, other, now)`` callable for an
arrival scenario of :func:`repro.engine.sim.run`
(``Scenario.from_arrivals``; a batch is every job arriving at time zero):

* :class:`FifoOnlinePolicy` — arrival order, placed on whichever processor
  asks (the naive work-conserving server);
* :class:`HcsOnlinePolicy` — the paper's greedy rule applied online: among
  *arrived* jobs, fill a processor from its preferred candidates first,
  choose the least predicted interference with the current co-runner, and
  decline a placement on the wrong processor when the job's relative
  slowdown there is too high (the batch scheduler's steal guard, adapted
  to the open setting where future arrivals are unknown);
* :class:`~repro.core.baselines.RandomOnlinePolicy` — the Random baseline.

:class:`HcsOnlinePolicy` reads the batch heuristic's Step 2
(:func:`~repro.core.categorize.categorize_jobs`) and Step 3 numbers
(:func:`~repro.core.greedy.pairing_source`).  It ranks co-runners by
summed degradation under every objective and leaves the objective to the
governor the run executes under: ranking by the energy, EDP or
makespan+energy governor's pair cost lost on its own objective in 35 of
36 measured arrivals cells (RESULTS.md, ``tools/online_ranking.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.device import DeviceKind
from repro.workload.program import Job
from repro.core.categorize import categorize_jobs
from repro.core.feasibility import context_cap
from repro.core.freqpolicy import ModelGovernor
from repro.core.greedy import pairing_source
from repro.perf.tensor import PairTables

#: How much slower than on the other processor a job may run when placed
#: on a processor it does not prefer.  With unknown future arrivals there
#: is no horizon to compare against, so a fixed ratio plays the batch steal
#: guard's role (2.0 ~ "at most twice as slow").
STEAL_RATIO_LIMIT = 2.0


@dataclass
class FifoOnlinePolicy:
    """First-come first-served, any processor that asks gets the head job."""

    def __call__(
        self, kind: DeviceKind, available: list[Job], other: Job | None, now: float
    ) -> Job | None:
        return available[0] if available else None


class HcsOnlinePolicy:
    """The heuristic's Step 2+3 rules applied to the arrived-job pool.

    ``ctx`` is a single-node
    :class:`~repro.core.context.SchedulingContext`; the arriving jobs must
    be among ``ctx.jobs``, whose preferences are computed once here (an
    arrival outside them raises ``ValueError``).
    """

    def __init__(self, ctx) -> None:
        cap = context_cap(ctx)
        self._source = pairing_source(ctx, self._ranking_governor(ctx, cap))
        cat = categorize_jobs(
            ctx.predictor, ctx.jobs, cap, best_time=self._source.best_time
        )
        self._uids = {job.uid for job in ctx.jobs}
        self._preferred = {
            DeviceKind.CPU: {j.uid for j in cat.cpu_preferred + cat.non_preferred},
            DeviceKind.GPU: {j.uid for j in cat.gpu_preferred + cat.non_preferred},
        }

    def _ranking_governor(self, ctx, cap: float) -> ModelGovernor:
        """The governor whose pair costs rank Step 3's co-runners: the
        makespan governor under every objective (``tools/online_ranking.py``
        overrides this to measure ranking by ``ctx.governor`` instead),
        served from the context's tensor model when it has one."""
        governor = ModelGovernor(ctx.predictor, cap)
        if ctx.tensor is not None:
            PairTables.attach(governor, ctx.tensor)
        return governor

    def __call__(
        self, kind: DeviceKind, available: list[Job], other: Job | None, now: float
    ) -> Job | None:
        for job in available:
            if job.uid not in self._uids:
                raise ValueError(f"job {job.uid!r} is not among the context's jobs")
        best = self._source.best_time
        candidates = [j for j in available if j.uid in self._preferred[kind]]
        if not candidates:
            # Only wrong-processor jobs are available: take one only if the
            # relative penalty is acceptable; otherwise stay idle and let
            # the right processor (or a better arrival) pick it up.
            candidates = [
                j
                for j in available
                if best(j, kind) <= STEAL_RATIO_LIMIT * best(j, kind.other)
            ]
            if not candidates:
                # Declining is safe even with both processors idle: an empty
                # preferred set here means every available job is strictly
                # faster on the other processor, whose own pick (asked in
                # the same scheduling event) will take it.
                return None
        if other is None:
            return max(candidates, key=lambda j: best(j, kind))
        if kind is DeviceKind.CPU:
            return min(candidates, key=lambda j: self._source.interference(j, other))
        return min(candidates, key=lambda j: self._source.interference(other, j))
