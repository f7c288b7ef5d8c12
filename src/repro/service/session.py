"""Incremental co-scheduling state: one node's simulation session.

:class:`ServiceSession` is the per-node engine inside the daemon's
:class:`~repro.service.fleet.FleetSession` (one APU is the one-node
fleet); the server never talks to it directly.

Bridges three layers that were previously only composable offline:

* the discrete-event :class:`~repro.engine.sim.SimCore` holds the virtual
  timeline (running pair, pending pool, future arrivals);
* the scheduling decision is :class:`~repro.core.online.ReplanOnlinePolicy`
  over a :class:`~repro.core.api.Scheduler` (any method in the
  ``repro.core`` registry — HCS by default), asked whenever a processor
  goes idle about the *arrived* unstarted jobs; ``engine.run`` under the
  same policy reproduces the session's completions;
* the :mod:`repro.perf` layer supplies the shared
  :class:`~repro.perf.cache.EvalCache` that submissions are profiled
  through.

The session itself keeps only the service's duties: the clock, cap
events, late rejections and completion records.

Power-cap events may land mid-run (:meth:`set_cap`): the governor is
rebuilt, the running pair's frequencies are re-evaluated at the event
time, and pending jobs that no cap setting can admit any more are
*withdrawn with a structured rejection* instead of raising
:class:`~repro.errors.InfeasibleCapError` into the event loop.  Every job
the policy is then asked about has a solo level under the cap, so each
batch passes the registry's cap certificate and comes back as a
cap-feasible plan; there is no fallback policy.  If even
the floor frequencies cannot hold the new cap for the already-running
pair, the session clamps to the floor and counts a cap violation —
in-flight work is never killed.

Everything here is synchronous and socket-free; :mod:`repro.service.server`
adds the wire protocol and locking on top.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from repro.errors import InfeasibleCapError
from repro.hardware.calibration import DEFAULT_POWER_CAP_W, make_ivy_bridge
from repro.hardware.device import DeviceKind
from repro.hardware.frequency import FrequencySetting
from repro.hardware.processor import IntegratedProcessor
from repro.workload.program import Job
from repro.core.api import Scheduler
from repro.core.objectives import governor_for
from repro.core.online import ReplanOnlinePolicy
from repro.objective import Objective
from repro.engine.sim import SimCore
from repro.engine.tracing import JobCompletion
from repro.model.characterize import characterize_space
from repro.model.predictor import CoRunPredictor
from repro.model.profiler import ProfileTable, extend_table
from repro.perf.cache import EvalCache
from repro.perf.evaluator import CachingPredictor

_EPS = 1e-9


@dataclass(frozen=True)
class CompletionRecord:
    """One finished job with the conditions in force when it launched."""

    job_id: str
    program: str
    kind: str
    arrival_s: float
    start_s: float
    finish_s: float
    cap_at_start_w: float
    setting: FrequencySetting
    power_at_start_w: float

    @property
    def turnaround_s(self) -> float:
        return self.finish_s - self.arrival_s

    @property
    def duration_s(self) -> float:
        return self.finish_s - self.start_s

    @property
    def energy_est_j(self) -> float:
        """Start-power × wall-time energy estimate.

        Mid-run partner and cap changes are not re-sampled, so this is an
        accounting estimate (the quantity energy-objective scheduling
        steers), not a ground-truth integration."""
        return self.power_at_start_w * self.duration_s


@dataclass(frozen=True)
class LateRejection:
    """A queued job withdrawn because a cap change made it unschedulable."""

    job_id: str
    cap_w: float
    message: str
    code: str = "infeasible_cap"


def check_cap(cap_w: float) -> None:
    """Refuse a cap no governor can hold: zero, negative, NaN or inf."""
    if not (cap_w > 0 and math.isfinite(cap_w)):
        raise ValueError(f"cap_w must be finite and positive, got {cap_w}")


class _SafeGovernor:
    """Delegate to the session's cap governor; never raise mid-run.

    When a cap drop strands the *running* pair (no feasible setting), kill
    nothing: clamp both devices to their floor frequencies and count a cap
    violation, mirroring what a real power-capped chip does when the
    budget cannot be met by DVFS alone.
    """

    def __init__(self, session: "ServiceSession") -> None:
        self._session = session

    def __call__(self, cpu_job: Job | None, gpu_job: Job | None):
        try:
            return self._session.governor(cpu_job, gpu_job)
        except InfeasibleCapError:
            self._session.cap_violations += 1
            proc = self._session.processor
            return FrequencySetting(
                proc.cpu.domain.fmin, proc.gpu.domain.fmin
            )


class ServiceSession:
    """Live, incremental co-scheduling over virtual time."""

    def __init__(
        self,
        processor: IntegratedProcessor | None = None,
        *,
        method: str = "hcs",
        cap_w: float = DEFAULT_POWER_CAP_W,
        objective="makespan",
        seed=None,
        sanitize: bool | None = None,
        node=None,
        **scheduler_opts,
    ) -> None:
        self.processor = processor if processor is not None else make_ivy_bridge()
        self.cache = EvalCache()
        self.method = method.lower()
        self.objective = Objective.coerce(objective)
        self.cap_w = cap_w
        #: Optional fleet :class:`~repro.core.fleet.Node` this session runs
        #: on: feasibility, powers, and the scheduler's plans all see the
        #: node's speed/power scaling.  The session clock stays native —
        #: the fleet facade converts to wall time at its boundary.
        self.node = node
        self.space = characterize_space(self.processor, cache=self.cache)
        self.table: ProfileTable = ProfileTable(
            processor=self.processor, jobs=(), _profiles={}
        )
        self._caching = CachingPredictor(
            CoRunPredictor(self.processor, self.table, self.space),
            cache=self.cache,
        )
        if node is not None:
            from repro.core.fleet import node_predictor

            self.predictor = node_predictor(self._caching, node)
        else:
            self.predictor = self._caching
        #: The engine's cap governor over the node-scaled model: executing
        #: a plan is the session's job, so it owns the policy the running
        #: pair's frequencies come from (rebuilt on every cap change).
        self.governor = governor_for(self.predictor, cap_w, self.objective)
        #: The scheduling decision; ``sanitize=None`` defers to the
        #: process-wide REPRO_SANITIZE flag at check time.
        self.policy = ReplanOnlinePolicy(
            Scheduler(
                method,
                cap_w=cap_w,
                objective=self.objective,
                predictor=self._caching,
                seed=seed,
                node=node,
                **scheduler_opts,
            ),
            sanitize=sanitize,
        )
        self.sim = SimCore(self.processor, _SafeGovernor(self))
        self.cap_violations = 0
        self._jobs: dict[str, Job] = {}
        self._cap_at_start: dict[str, float] = {}
        self._cap_events: list[tuple[float, int, float]] = []
        self._cap_seq = 0
        self._late_rejections: list[LateRejection] = []
        self._unprofiled: list[Job] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def queue_depth(self) -> int:
        """Admitted jobs that have not started yet (pending + future)."""
        return self.sim.queued

    @property
    def running(self) -> dict[DeviceKind, Job]:
        return self.sim.running

    @property
    def idle(self) -> bool:
        return self.sim.idle

    def job(self, uid: str) -> Job:
        return self._jobs[uid]

    # ------------------------------------------------------------------
    # Profiling and feasibility
    # ------------------------------------------------------------------
    def _flush_profiles(self) -> None:
        """Profile every deferred submission in one table extension.

        :meth:`submit` defers profiling so a burst of N submissions costs
        one batched :func:`~repro.model.profiler.extend_table` call at the
        next clock movement, not N copies of an ever-growing table — the
        difference between O(N) and O(N²) on the service's hot path.

        The grown table is installed by swapping the *inner* predictor of
        the session's one shared :class:`CachingPredictor`: the policy's
        scheduler (and every context it builds) and the session's governor
        all hold that object, so they see the new jobs with no policy rebuild.
        """
        if not self._unprofiled:
            return
        batch = [j for j in self._unprofiled if j.uid not in self.table]
        self._unprofiled.clear()
        if not batch:
            return
        self.table = extend_table(self.table, batch, cache=self.cache)
        self._caching.inner = CoRunPredictor(
            self.processor, self.table, self.space
        )

    def _solo_feasible(self, uid: str) -> bool:
        return any(
            self.predictor.feasible_solo_levels(uid, kind, self.cap_w)
            for kind in DeviceKind
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def submit(self, job: Job, arrival_s: float | None = None) -> float:
        """Inject ``job`` at ``arrival_s`` (clamped to >= now); returns it.

        Profiling is deferred to the next :meth:`advance`/:meth:`drain`
        (see :meth:`_flush_profiles`), so submission itself is O(log n) —
        an arrival-heap push — no matter how large the session grows.
        """
        arrival = self.sim.now if arrival_s is None else max(arrival_s, self.sim.now)
        self.sim.add_arrival(job, arrival)  # raises first on duplicate uid
        if job.uid not in self.table:
            self._unprofiled.append(job)
        self._jobs[job.uid] = job
        return arrival

    def set_cap(self, cap_w: float, at_s: float | None = None) -> float:
        """Change the power cap now or at a future virtual time.

        Returns the effective time.  A future event is applied exactly at
        its timestamp during :meth:`advance`/:meth:`drain`, re-evaluating
        the running pair's frequencies at that instant.
        """
        check_cap(cap_w)
        if at_s is not None and at_s > self.sim.now + _EPS:
            heapq.heappush(self._cap_events, (at_s, self._cap_seq, cap_w))
            self._cap_seq += 1
            return at_s
        self._apply_cap(cap_w)
        return self.sim.now

    def _apply_cap(self, cap_w: float) -> None:
        self.cap_w = cap_w
        self.governor = governor_for(self.predictor, cap_w, self.objective)
        self.policy.set_cap(cap_w)
        self.sim.invalidate_setting()

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def _run(self, until_s: float) -> list[JobCompletion]:
        """Simulate to ``until_s``, or until idle when it is ``inf``,
        applying each cap event exactly at its timestamp."""
        draining = until_s == math.inf
        self._flush_profiles()
        completions: list[JobCompletion] = []
        while not (draining and self.sim.idle):
            bound = until_s
            if self._cap_events:
                bound = min(bound, self._cap_events[0][0])
            completions.extend(self.sim.advance(self._decide, bound))
            if (
                self._cap_events
                and self.sim.now >= self._cap_events[0][0] - _EPS
            ):
                _, _, cap_w = heapq.heappop(self._cap_events)
                self._apply_cap(cap_w)
            elif not draining:
                break
            if self.sim.now >= until_s - _EPS:
                break
        return completions

    def _report(
        self, completions: list[JobCompletion]
    ) -> tuple[list[CompletionRecord], list[LateRejection]]:
        return (
            [self._completion_record(c) for c in completions],
            self.pop_late_rejections(),
        )

    def advance(
        self, until_s: float
    ) -> tuple[list[CompletionRecord], list[LateRejection]]:
        """Advance the virtual clock to ``until_s``, applying cap events."""
        if until_s < self.sim.now - _EPS:
            raise ValueError(
                f"cannot advance to {until_s}: clock is at {self.sim.now}"
            )
        return self._report(self._run(until_s))

    def drain(self) -> tuple[list[CompletionRecord], list[LateRejection]]:
        """Run until every queued and running job has completed."""
        completions = self._run(math.inf)
        if self.policy.sanitizing:
            # Session completion: every batch plan that drove this run must
            # still satisfy the Definition 2.1 invariants under the cap.
            self.policy.verify_plans("service:session")
        return self._report(completions)

    def pop_late_rejections(self) -> list[LateRejection]:
        out, self._late_rejections = self._late_rejections, []
        return out

    # ------------------------------------------------------------------
    # The engine callback: filter, ask the policy, record the cap
    # ------------------------------------------------------------------
    def _candidates(self, available: list[Job]) -> list[Job]:
        """Filter the arrived pool; late-reject cap-stranded jobs."""
        keep = []
        for job in available:
            if self._solo_feasible(job.uid):
                keep.append(job)
            else:
                self.sim.withdraw(job.uid)
                self._late_rejections.append(
                    LateRejection(
                        job_id=job.uid,
                        cap_w=self.cap_w,
                        message=(
                            f"cap change to {self.cap_w} W left no feasible "
                            f"frequency for queued job {job.uid!r}"
                        ),
                    )
                )
        return keep

    def _decide(
        self, kind: DeviceKind, available: list[Job], other: Job | None,
        now: float,
    ) -> Job | None:
        # ``_candidates`` late-rejects every job without a solo level, so
        # the batch always passes the scheduler's cap certificate.
        candidates = self._candidates(available)
        if not candidates:
            return None
        job = self.policy(kind, candidates, other, now)
        if job is not None:
            # The cap in force when a job is handed to the engine is the
            # cap its start-time frequency setting is chosen under — record
            # it here, where both facts are simultaneously true.
            self._cap_at_start[job.uid] = self.cap_w
        return job

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------
    def _completion_record(self, c: JobCompletion) -> CompletionRecord:
        start = self.sim.starts[c.job]
        setting = start.setting
        if start.partner is not None:
            cpu_uid, gpu_uid = (
                (c.job, start.partner)
                if start.kind is DeviceKind.CPU
                else (start.partner, c.job)
            )
            power = self.predictor.pair_power_w(cpu_uid, gpu_uid, setting)
        else:
            f = (
                setting.cpu_ghz
                if start.kind is DeviceKind.CPU
                else setting.gpu_ghz
            )
            power = self.predictor.solo_power_w(c.job, start.kind, f)
        return CompletionRecord(
            job_id=c.job,
            program=self._jobs[c.job].program_name,
            kind=c.kind,
            arrival_s=self.sim.arrivals[c.job],
            start_s=c.start_s,
            finish_s=c.finish_s,
            cap_at_start_w=self._cap_at_start.get(c.job, self.cap_w),
            setting=setting,
            power_at_start_w=power,
        )
