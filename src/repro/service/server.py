"""Shared service state behind every listener front end.

:class:`ServiceState` is everything behind a listener: the scheduling
session (always a :class:`~repro.service.fleet.FleetSession`; one APU is
the one-node fleet), multi-tenant admission (quotas + priority backlog),
metrics, and the durable :class:`~repro.store.JobStore`.  Every job
state transition is committed to the store's event log *before* the
response that acknowledges it is returned, so an acknowledgement implies
durability (group commit: batches flush once per request batch).

One job lifecycle: the store's fold is the only job table.  Queue depth
is the session's count of admitted, not-yet-started jobs; per-tenant
live counts (quotas) are the fold's ``tenant_live`` index; a job is
``held`` exactly while it sits in the :class:`TenantBacklog`.  The
asyncio front end in :mod:`repro.service.async_server` (and the sharded
tier above it) drives this state; the protocol behaves identically
regardless of transport.

The deprecated ``socketserver.ThreadingTCPServer`` listener
(``serve`` / ``CoScheduleServer`` / ``repro serve --legacy-server``) has
been removed after its one-release grace period —
:func:`repro.service.async_server.serve_async` is the only entry point.

Shutdown is graceful on a ``shutdown`` request: in-flight and queued jobs
are drained through the simulator before the listener stops, so no
admitted work is ever lost.
"""

from __future__ import annotations

import threading

from repro.workload.program import Job
from repro.workload.rodinia import rodinia_programs
from repro.service import protocol
from repro.service.admission import HeldSubmission, TenantBacklog, TenantPolicy
from repro.service.metrics import ServiceMetrics
from repro.service.fleet import FleetSession
from repro.service.session import CompletionRecord, LateRejection
from repro.store import events as ev
from repro.store.store import JobStore, PREEMPTED, QUEUED

#: Store lifecycle -> wire-level job state.
_WIRE_STATE = {
    "submitted": "queued",
    "queued": "queued",
    "running": "running",
    "preempted": "queued",
    "done": "done",
    "rejected": "rejected",
}


def _completion_info(record: CompletionRecord) -> protocol.CompletionInfo:
    return protocol.CompletionInfo(
        job_id=record.job_id,
        program=record.program,
        kind=record.kind,
        arrival_s=record.arrival_s,
        start_s=record.start_s,
        finish_s=record.finish_s,
        turnaround_s=record.turnaround_s,
        cap_at_start_w=record.cap_at_start_w,
        cpu_ghz=record.setting.cpu_ghz,
        gpu_ghz=record.setting.gpu_ghz,
        power_at_start_w=record.power_at_start_w,
        energy_est_j=record.energy_est_j,
    )


def _rejection_info(rej: LateRejection) -> protocol.RejectionResponse:
    return protocol.RejectionResponse(
        code=rej.code, message=rej.message, job_id=rej.job_id, cap_w=rej.cap_w
    )


class ServiceState:
    """Everything behind the socket: session, store, admission, one lock.

    ``queue_capacity`` bounds the session's admitted-but-not-started jobs;
    running and finished jobs do not count against it, so a drained
    system always accepts new work.
    """

    def __init__(
        self,
        session: FleetSession,
        *,
        queue_capacity: int = 64,
        store: JobStore | None = None,
        tenant_policy: TenantPolicy | None = None,
        shard_id: int = 0,
    ) -> None:
        if queue_capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.session = session
        self.queue_capacity = queue_capacity
        self.metrics = ServiceMetrics()
        self.lock = threading.RLock()
        self.stopping = threading.Event()
        self.shard_id = shard_id
        self.store = store if store is not None else JobStore()
        self.tenant_policy = tenant_policy if tenant_policy is not None else TenantPolicy()
        self.backlog = TenantBacklog(self.tenant_policy.backlog_capacity)
        self._programs = {p.name: p for p in rodinia_programs()}
        self._scaled: dict[tuple[str, float], object] = {}
        self._auto_id = 0
        self.recovered_jobs = 0
        self._recover()

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Resume from whatever the store's log says happened.

        Completed/rejected jobs stay terminal (never re-run); interrupted
        live jobs — including ones that were *running* when the process
        died — are re-queued into a fresh session via ``JobRequeued``
        events, and the virtual clock and cap are restored, so the
        recovered daemon continues the same timeline.
        """
        state = self.store.state
        if state.cap_w is not None:
            self.session.set_cap(state.cap_w)
        if state.now_s > self.session.now:
            self.session.advance(state.now_s)
        self._auto_id = len(state.jobs)
        live = sorted(
            state.live_jobs(), key=lambda j: (j.arrival_s, j.job_id)
        )
        requeues: list[ev.Event] = []
        for stored in live:
            profile = self._profile_for(stored.program, stored.scale)
            if profile is None:
                requeues.append(ev.JobRejected(
                    job_id=stored.job_id,
                    code="unknown_program",
                    message=(
                        f"program {stored.program!r} is no longer calibrated"
                    ),
                ))
                continue
            if stored.state != QUEUED:
                requeues.append(ev.JobRequeued(job_id=stored.job_id))
            job = Job(uid=stored.job_id, profile=profile)
            self.session.submit(job, max(stored.arrival_s, self.session.now))
            self.recovered_jobs += 1
        self.metrics.completed = state.completed
        if requeues:
            self.store.commit(*requeues)
            self.store.flush()

    def _profile_for(self, program: str, scale: float):
        base = self._programs.get(program)
        if base is None or scale <= 0:
            return None
        if scale == 1.0:
            return base
        key = (program, scale)
        hit = self._scaled.get(key)
        if hit is None:
            hit = self._scaled[key] = base.scaled(scale)
        return hit

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(self, request):
        with self.lock:
            self.metrics.requests += 1
            handler = self._HANDLERS[type(request)]
            response = handler(self, request)
            self.store.flush()
            return response

    def handle_batch(self, requests: list) -> list:
        """Handle pipelined requests under one lock and one group commit.

        Durability cost is amortized: the store's log is flushed once for
        the whole batch, and every response is acknowledged only after
        that flush covers its events.
        """
        with self.lock:
            out = []
            for request in requests:
                self.metrics.requests += 1
                handler = self._HANDLERS[type(request)]
                out.append(handler(self, request))
            self.store.flush()
            return out

    def close(self) -> None:
        """Flush and snapshot the store (graceful shutdown path)."""
        with self.lock:
            self.store.close()

    # ------------------------------------------------------------------
    # Session-outcome bookkeeping
    # ------------------------------------------------------------------
    def _absorb(
        self,
        completions: list[CompletionRecord],
        rejections: list[LateRejection],
    ) -> tuple[list[protocol.CompletionInfo], list[protocol.RejectionResponse]]:
        """Fold a session step's outcome into the store and metrics."""
        events: list[ev.Event] = []
        for record in completions:
            self.metrics.completed += 1
            self.metrics.observe_completion(
                turnaround_s=record.turnaround_s,
                duration_s=record.duration_s,
                energy_est_j=record.energy_est_j,
            )
            stored = self.store.job(record.job_id)
            if stored is not None:
                if stored.state in (QUEUED, PREEMPTED):
                    events.append(ev.JobScheduled(
                        job_id=record.job_id,
                        device=record.kind,
                        start_s=record.start_s,
                    ))
                events.append(ev.JobCompleted(
                    job_id=record.job_id,
                    device=record.kind,
                    start_s=record.start_s,
                    finish_s=record.finish_s,
                    energy_est_j=record.energy_est_j,
                ))
        for rej in rejections:
            self.metrics.rejected_late += 1
            if rej.job_id in self.store:
                events.append(ev.JobRejected(
                    job_id=rej.job_id, code=rej.code, message=rej.message
                ))
        for device, job in self.session.running.items():
            stored = self.store.job(job.uid)
            if stored is not None and stored.state in (QUEUED, PREEMPTED):
                events.append(ev.JobScheduled(
                    job_id=job.uid,
                    device=device,
                    start_s=self.session.wall_start(job.uid),
                ))
        for rec in self.session.new_preemptions():
            stored = self.store.job(rec.job)
            if stored is None or stored.state != "running":
                continue
            events.append(ev.JobPreempted(
                job_id=rec.job, device=rec.from_device, at_s=rec.at_s
            ))
            if rec.migrated and rec.resumed_device is not None:
                events.append(ev.JobMigrated(
                    job_id=rec.job,
                    src=rec.from_device,
                    dst=rec.resumed_device,
                    at_s=rec.resumed_s if rec.resumed_s is not None else rec.at_s,
                ))
        if events:
            self.store.commit(*events)
        self.metrics.cap_violations = self.session.cap_violations
        self._refill()
        return (
            [_completion_info(r) for r in completions],
            [_rejection_info(r) for r in rejections],
        )

    def _refill(self) -> None:
        """Admit held submissions into freed queue slots (priority order)."""
        while (
            self.backlog.depth
            and self.session.queue_depth < self.queue_capacity
        ):
            held = self.backlog.pop()
            if held is None:  # pragma: no cover - depth said otherwise
                break
            self.session.submit(held.job, max(held.arrival_s, self.session.now))

    # ------------------------------------------------------------------
    # Admission helpers
    # ------------------------------------------------------------------
    def _log_rejection(
        self, req: protocol.SubmitRequest, job_id: str, arrival: float,
        code: str, message: str,
    ) -> None:
        """Durably record a refused (but validated) submission."""
        self.store.commit(
            ev.JobSubmitted(
                job_id=job_id,
                program=req.program,
                scale=req.scale,
                arrival_s=arrival,
                tenant=req.tenant,
                priority=req.priority,
                idempotency_key=req.idempotency_key,
                objective=req.objective,
            ),
            ev.JobRejected(job_id=job_id, code=code, message=message),
        )

    # ------------------------------------------------------------------
    # Request handlers
    # ------------------------------------------------------------------
    def _handle_submit(self, req: protocol.SubmitRequest):
        self.metrics.submitted += 1
        served = self.session.objective.value
        if req.objective is not None and req.objective != served:
            self.metrics.rejected_objective += 1
            return protocol.RejectionResponse(
                code="objective_mismatch",
                message=(
                    f"this daemon optimizes {served!r}, not "
                    f"{req.objective!r}; resubmit without an objective or "
                    f"start a daemon with --objective {req.objective}"
                ),
                job_id=req.uid,
            )
        hit = self.store.idempotency_hit(req.idempotency_key)
        if hit is not None:
            self.metrics.deduplicated += 1
            return protocol.SubmitResponse(
                job_id=hit.job_id,
                state=_WIRE_STATE[hit.state],
                arrival_s=hit.arrival_s,
                queue_depth=self.session.queue_depth,
                deduplicated=True,
            )
        profile = self._programs.get(req.program)
        if profile is None:
            self.metrics.rejected_invalid += 1
            return protocol.RejectionResponse(
                code="unknown_program",
                message=(
                    f"unknown program {req.program!r}; calibrated programs: "
                    + ", ".join(sorted(self._programs))
                ),
            )
        if not req.scale > 0:
            self.metrics.rejected_invalid += 1
            return protocol.RejectionResponse(
                code="invalid_scale",
                message=f"scale must be positive, got {req.scale}",
                job_id=req.uid,
            )
        if req.uid is not None:
            job_id = req.uid
        else:
            self._auto_id += 1
            # Qualify generated ids with the shard so ids stay unique
            # daemon-wide when several shards number independently (shard
            # 0 keeps the legacy single-shard format).
            job_id = (
                f"{req.program}#{self.shard_id}.{self._auto_id}"
                if self.shard_id
                else f"{req.program}#{self._auto_id}"
            )
        arrival = (
            self.session.now if req.arrival_s is None
            else max(req.arrival_s, self.session.now)
        )
        if job_id in self.store:
            self.metrics.rejected_invalid += 1
            return protocol.RejectionResponse(
                code="duplicate",
                message=f"job id {job_id!r} was already submitted",
                job_id=job_id,
                cap_w=self.session.cap_w,
            )
        depth = self.session.queue_depth
        room = depth < self.queue_capacity
        if not room and self.backlog.full:
            # Transient refusal: not logged to the store, so the client
            # may retry the same uid once the queue drains.
            self.metrics.rejected_backpressure += 1
            return protocol.RejectionResponse(
                code="backpressure",
                message=(
                    f"submission queue is full "
                    f"({depth}/{self.queue_capacity});"
                    " retry after some jobs start"
                ),
                job_id=job_id,
                cap_w=self.session.cap_w,
            )
        job = Job(uid=job_id, profile=self._profile_for(req.program, req.scale))
        if not self.session.admissible(job):
            self.metrics.rejected_infeasible += 1
            message = (
                f"no frequency setting admits {job_id!r} on either "
                f"device under the {self.session.cap_w} W cap"
            )
            self._log_rejection(req, job_id, arrival, "infeasible_cap", message)
            return protocol.RejectionResponse(
                code="infeasible_cap",
                message=message,
                job_id=job_id,
                cap_w=self.session.cap_w,
            )
        quota = self.tenant_policy.quota
        if (
            quota is not None
            and self.store.state.tenant_live.get(req.tenant, 0) >= quota
        ):
            # Transient, like backpressure: the uid stays reusable once
            # the tenant's live jobs finish.
            self.metrics.rejected_quota += 1
            message = (
                f"tenant {req.tenant!r} is at its quota of "
                f"{quota} live jobs"
            )
            return protocol.RejectionResponse(
                code="tenant_quota",
                message=message,
                job_id=job_id,
                cap_w=self.session.cap_w,
            )
        self.store.commit(
            ev.JobSubmitted(
                job_id=job_id,
                program=req.program,
                scale=req.scale,
                arrival_s=arrival,
                tenant=req.tenant,
                priority=req.priority,
                idempotency_key=req.idempotency_key,
                objective=req.objective,
            ),
            ev.JobAdmitted(job_id=job_id, cap_w=self.session.cap_w),
        )
        self.metrics.admitted += 1
        if room:
            arrival = self.session.submit(job, arrival)
            state = "queued"
        else:
            self.backlog.push(HeldSubmission(
                job=job,
                arrival_s=arrival,
                tenant=req.tenant,
                priority=req.priority,
            ))
            state = "held"
        return protocol.SubmitResponse(
            job_id=job_id,
            state=state,
            arrival_s=arrival,
            queue_depth=self.session.queue_depth,
        )

    def _handle_set_cap(self, req: protocol.SetCapRequest):
        try:
            at_s = self.session.set_cap(req.cap_w, req.at_s)
        except ValueError as exc:
            return protocol.ErrorResponse(code="bad_request", message=str(exc))
        self.metrics.cap_events += 1
        self.store.commit(ev.CapChanged(cap_w=req.cap_w, at_s=at_s))
        return protocol.CapResponse(cap_w=req.cap_w, at_s=at_s)

    def _advance_clock_event(self) -> None:
        if self.session.now > self.store.state.now_s:
            self.store.commit(ev.ClockAdvanced(now_s=self.session.now))

    def _handle_advance(self, req: protocol.AdvanceRequest):
        try:
            completions, rejections = self.session.advance(req.until_s)
        except ValueError as exc:
            return protocol.ErrorResponse(code="bad_request", message=str(exc))
        done, rejected = self._absorb(completions, rejections)
        self._advance_clock_event()
        return protocol.AdvanceResponse(
            now_s=self.session.now, completions=done, rejections=rejected
        )

    def _drain_all(self) -> tuple[list, list]:
        """Drain the session *and* the backlog to completion."""
        done: list[protocol.CompletionInfo] = []
        rejected: list[protocol.RejectionResponse] = []
        while True:
            completions, rejections = self.session.drain()
            d, r = self._absorb(completions, rejections)
            done.extend(d)
            rejected.extend(r)
            if not self.backlog.depth and self.session.idle:
                break
        self._advance_clock_event()
        return done, rejected

    def _handle_drain(self, req: protocol.DrainRequest):
        done, rejected = self._drain_all()
        return protocol.DrainResponse(
            now_s=self.session.now, completions=done, rejections=rejected
        )

    def _handle_status(self, req: protocol.StatusRequest):
        return protocol.StatusResponse(
            now_s=self.session.now,
            cap_w=self.session.cap_w,
            queue_depth=self.session.queue_depth,
            running=[job.uid for job in self.session.running.values()],
            completed=self.metrics.completed,
            rejected=self.metrics.rejected,
            method=self.session.method,
            objective=self.session.objective.value,
        )

    def _handle_metrics(self, req: protocol.MetricsRequest):
        depth = self.session.queue_depth
        extra: dict[str, float] = {
            "backlog_depth": float(self.backlog.depth),
            "recovered_jobs": float(self.recovered_jobs),
            "store_jobs": float(len(self.store)),
            "store_completed": float(self.store.state.completed),
            "store_rejected": float(self.store.state.rejected),
        }
        for tenant, n in sorted(self.store.state.tenant_live.items()):
            extra[f"tenant_live_{tenant}"] = float(n)
        for tenant, n in sorted(self.backlog.depths().items()):
            extra[f"tenant_backlog_{tenant}"] = float(n)
        return protocol.MetricsResponse(
            metrics=self.metrics.snapshot(
                queue_depth=depth,
                running=len(self.session.running),
                now_s=self.session.now,
                cap_w=self.session.cap_w,
                cache=self.session.cache_counters(),
                headroom=max(0, self.queue_capacity - depth),
                extra=extra,
            )
        )

    def _handle_jobs(self, req: protocol.JobsRequest):
        """Every job the store knows, in submission order.

        ``arrival_s`` is the arrival the submission was acknowledged
        with (completions report the session's effective arrival), and
        ``detail`` is the store's rejection message.
        """
        held = self.backlog
        return protocol.JobsResponse(jobs=[
            {
                "job_id": job.job_id,
                "program": job.program,
                "scale": job.scale,
                "state": (
                    "held" if job.job_id in held else _WIRE_STATE[job.state]
                ),
                "arrival_s": job.arrival_s,
                "detail": job.detail,
            }
            for job in self.store.state.jobs.values()
        ])

    def _handle_shutdown(self, req: protocol.ShutdownRequest):
        done, _ = self._drain_all()
        self.stopping.set()
        return protocol.ShutdownResponse(
            now_s=self.session.now, completions=done
        )

    _HANDLERS = {
        protocol.SubmitRequest: _handle_submit,
        protocol.SetCapRequest: _handle_set_cap,
        protocol.AdvanceRequest: _handle_advance,
        protocol.DrainRequest: _handle_drain,
        protocol.StatusRequest: _handle_status,
        protocol.MetricsRequest: _handle_metrics,
        protocol.JobsRequest: _handle_jobs,
        protocol.ShutdownRequest: _handle_shutdown,
    }
