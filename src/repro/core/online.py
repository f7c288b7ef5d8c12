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
* :class:`ReplanOnlinePolicy` — the online service's rule: re-plan the
  arrived pool with any registry method when it changes and issue the
  heads of the plan (the daemon's :class:`~repro.service.session.ServiceSession`
  runs it; here ``engine.run`` under it referees the daemon);
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

from repro.analysis.invariants import check_schedule, env_sanitizer_enabled
from repro.hardware.device import DeviceKind
from repro.workload.program import Job
from repro.core.categorize import categorize_jobs
from repro.core.feasibility import context_cap
from repro.core.freqpolicy import ModelGovernor
from repro.core.fleet import node_predictor
from repro.core.greedy import pairing_source
from repro.core.schedule import CoSchedule
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


class ReplanOnlinePolicy:
    """Re-plan the arrived pool as a batch; issue the plan's queue heads.

    ``scheduler`` is a :class:`~repro.core.api.Scheduler` (any registry
    method, optionally node-scaled); the policy plans through its
    ``__call__`` under its current cap.  When a processor asks:

    * the arrived jobs are planned as one batch, once per distinct pool:
      plans are memoized in :attr:`plans`, keyed by (cap, sorted uids), and
      forgotten on :meth:`set_cap`;
    * the asking processor gets the head of its queue in that plan, unless
      the head would bust the cap next to the job running on the other
      processor (the plan assumed a fresh machine) — then it waits;
    * a processor with an empty queue that is *alone* takes its first job
      from the plan's solo tail, which must run alone.

    Every job asked about needs a cap-feasible solo level: the registry's
    cap certificate raises on a stranded one, so callers filter first.
    ``sanitize`` (``None`` defers to ``REPRO_SANITIZE``) checks each fresh
    plan once (``where="service:batch"``) unless the planning context
    already sanitizes, and arms :meth:`verify_plans`.
    """

    def __init__(self, scheduler, *, sanitize: bool | None = None) -> None:
        self.scheduler = scheduler
        self._sanitize = sanitize
        # Cap feasibility next to the running job is judged on the node's
        # view of the model, the same one the scheduler's contexts see.
        self._predictor = (
            scheduler.predictor
            if scheduler.node is None
            else node_predictor(scheduler.predictor, scheduler.node)
        )
        #: The plan memo: (cap, sorted uids) -> (jobs, plan).  It keeps
        #: every plan of the current cap, so :meth:`verify_plans` can
        #: re-check all of them.
        self.plans: dict[tuple, tuple[tuple[Job, ...], CoSchedule]] = {}

    @property
    def sanitizing(self) -> bool:
        """Does this policy check plans (its flag, else REPRO_SANITIZE)?"""
        if self._sanitize is not None:
            return self._sanitize
        return env_sanitizer_enabled()

    def set_cap(self, cap_w: float) -> None:
        """Plan under ``cap_w`` from now on; forget the old cap's plans."""
        self.scheduler.set_cap(cap_w)
        self.plans.clear()

    def verify_plans(self, where: str) -> None:
        """Re-check every memoized plan, each on a freshly built context,
        so a governor rigged after planning is still caught."""
        for jobs, plan in list(self.plans.values()):
            check_schedule(self.scheduler.context(jobs), plan, where=where)

    def _plan(self, available: list[Job]) -> CoSchedule:
        ordered = tuple(sorted(available, key=lambda j: j.uid))
        key = (self.scheduler.cap_w, tuple(j.uid for j in ordered))
        hit = self.plans.get(key)
        if hit is None:
            plan = self.scheduler(ordered).schedule
            # Only an explicit sanitize=True needs this check: a Scheduler's
            # contexts sanitize exactly when REPRO_SANITIZE is set, and then
            # dispatch has verified the plan already.
            if self._sanitize and not env_sanitizer_enabled():
                check_schedule(
                    self.scheduler.context(ordered), plan, where="service:batch"
                )
            hit = self.plans[key] = (ordered, plan)
        return hit[1]

    def _pair_feasible(self, job: Job, kind: DeviceKind, other: Job) -> bool:
        cpu, gpu = (job, other) if kind is DeviceKind.CPU else (other, job)
        return bool(
            self._predictor.feasible_pair_settings(
                cpu.uid, gpu.uid, self.scheduler.cap_w
            )
        )

    def __call__(
        self, kind: DeviceKind, available: list[Job], other: Job | None, now: float
    ) -> Job | None:
        if not available:
            return None
        plan = self._plan(available)
        queue = plan.cpu_queue if kind is DeviceKind.CPU else plan.gpu_queue
        if queue:
            head = queue[0]
            if other is not None and not self._pair_feasible(head, kind, other):
                return None
            return head
        if other is None:
            for job, tail_kind in plan.solo_tail:
                if tail_kind is kind:
                    return job
        return None
