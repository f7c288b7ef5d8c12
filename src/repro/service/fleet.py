"""The daemon's scheduling session: one live session per fleet node.

:class:`FleetSession` is the only session type behind
:class:`~repro.service.server.ServiceState`.  It fans the work out over
a :class:`~repro.core.fleet.Fleet` — one independent
:class:`ServiceSession` per node, each with its own profile table,
EvalCache, scheduler, and SimCore.  The single-APU daemon is the
one-node case, ``Fleet.single(cap_w)``.

Clock model (the conversions of
:class:`~repro.engine.fleetsim.NodeExecution`): every node session
runs in *node-native* time — the calibrated APU physics, with the node's
power rating folded into the governor via the node-scaled predictor.  The
facade converts at its boundary: ``wall = native / speed_scale``.  All
fleet-level numbers (completion times, the virtual clock, preemptions)
are wall-clock.

Device names: a one-node fleet reports plain ``cpu`` / ``gpu`` and
untagged late-rejection messages; a multi-node fleet qualifies every
device as ``node:kind`` and tags late rejections ``[node]``, so the
durable store's event log distinguishes the same APU device on
different nodes.

Placement is greedy lowest-projected-backlog: a submission goes to the
admissible node whose accumulated estimated wall backlog (sum of the
best-solo wall times of its unfinished jobs) is smallest, ties broken by
node order.  Admissibility and the estimate come from one per-node memo
keyed by the job's profile content and the node's cap, so placement
profiles each distinct job shape once fleet-wide, not once per
submission.  Node-level scheduling stays whatever registry method each
session runs.

Cap changes treat the requested wattage as a new *fleet budget* and
rescale every node's cap proportionally to its original share, so a
shared-budget fleet keeps its proportional split and a per-node-capped
fleet scales every cap by the same factor.
"""

from __future__ import annotations

import dataclasses

from repro.core.fleet import Fleet, node_predictor
from repro.engine.sim import PreemptionRecord
from repro.hardware.device import DeviceKind
from repro.model.predictor import CoRunPredictor
from repro.model.profiler import ProfileTable, extend_table
from repro.perf.cache import fingerprint
from repro.units import WallSeconds, Watts
from repro.service.metrics import derive_hit_rate
from repro.service.session import (
    _EPS,
    CompletionRecord,
    LateRejection,
    ServiceSession,
    check_cap,
)
from repro.workload.program import Job, ProgramProfile

#: Seed stride between node sessions, so seeded fleets stay reproducible
#: without correlated per-node randomness.
_SEED_STRIDE = 1_000_003


class FleetSession:
    """Live, incremental co-scheduling over a fleet of APUs."""

    def __init__(
        self,
        fleet: Fleet,
        *,
        processor=None,
        method: str = "hcs",
        objective="makespan",
        seed=None,
        sanitize: bool | None = None,
        **scheduler_opts,
    ) -> None:
        self.fleet = fleet
        caps = fleet.node_caps()
        total = fleet.total_cap_w()
        #: Each node's fraction of the fleet ceiling, frozen at
        #: construction — :meth:`set_cap` rescales against these shares.
        self._shares = tuple(c / total for c in caps)
        self.sessions = tuple(
            ServiceSession(
                processor,
                method=method,
                cap_w=caps[i],
                objective=objective,
                seed=None if seed is None else seed + _SEED_STRIDE * i,
                sanitize=sanitize,
                node=node,
                **scheduler_opts,
            )
            for i, node in enumerate(fleet.nodes)
        )
        first = self.sessions[0]
        self.method = first.method
        self.objective = first.objective
        self._scales = tuple(node.speed_scale for node in fleet.nodes)
        self._qualified = len(fleet) > 1
        #: uid -> owning node index.
        self._owner: dict[str, int] = {}
        #: uid -> estimated best-solo wall time (the placement weight).
        self._est: dict[str, float] = {}
        #: Projected unfinished wall backlog per node.
        self._load = [0.0] * len(fleet)
        #: Preemptions already handed out by :meth:`new_preemptions`.
        self._preempts_seen = [0] * len(fleet)
        #: id(profile) -> (profile, content fingerprint); the fingerprint
        #: is the key ``extend_table`` caches sweeps under.  Keyed by
        #: identity because hashing a profile walks its whole value graph
        #: on every submission; the entry holds the profile so its id is
        #: never reused.
        self._shape_of: dict[int, tuple[ProgramProfile, str]] = {}
        #: One profiled job per distinct shape, uid = its fingerprint,
        #: and per node a node-scaled predictor over that table.
        self._shapes = ProfileTable(
            processor=first.processor, jobs=(), _profiles={}
        )
        self._shape_predictors: tuple = ()
        #: Per node: (shape, node cap) -> best-solo wall seconds, or
        #: None when no frequency level fits the cap on either device.
        self._placement: list[dict[tuple[str, Watts], float | None]] = [
            {} for _ in fleet.nodes
        ]
        #: (job, node loads, node caps, placement) of the last
        #: :meth:`_place` call.
        self._last_placement: tuple | None = None

    # ------------------------------------------------------------------
    # Introspection (plain loops: the server reads these per request)
    # ------------------------------------------------------------------
    @property
    def cap_w(self) -> Watts:
        """The fleet-wide ceiling: the summed effective node caps."""
        total = 0
        for session in self.sessions:
            total += session.cap_w
        return total

    @property
    def cap_violations(self) -> int:
        return sum(s.cap_violations for s in self.sessions)

    @property
    def now(self) -> WallSeconds:
        """The fleet's wall clock: the furthest node's."""
        now = 0.0
        for session, scale in zip(self.sessions, self._scales):
            wall = session.now / scale
            if wall > now:
                now = wall
        return now

    @property
    def queue_depth(self) -> int:
        depth = 0
        for session in self.sessions:
            depth += session.queue_depth
        return depth

    @property
    def running(self) -> dict[str, Job]:
        """Device name -> the job running on it, fleet-wide."""
        return {
            self._device(i, kind.value): job
            for i, session in enumerate(self.sessions)
            for kind, job in session.running.items()
        }

    @property
    def idle(self) -> bool:
        return all(s.idle for s in self.sessions)

    def node_of(self, uid: str) -> str:
        """Which node a submitted job was placed on."""
        return self.fleet.nodes[self._owner[uid]].name

    def wall_start(self, uid: str) -> WallSeconds:
        """Wall-clock start of a job that has started on its node."""
        index = self._owner[uid]
        start = self.sessions[index].sim.starts[uid]
        return start.start_s / self.fleet.nodes[index].speed_scale

    def new_preemptions(self) -> list[PreemptionRecord]:
        """Preemptions since the last call, on the wall clock, node order."""
        out: list[PreemptionRecord] = []
        for i, node in enumerate(self.fleet.nodes):
            s = node.speed_scale
            log = self.sessions[i].sim.preemptions
            for rec in log[self._preempts_seen[i]:]:
                out.append(dataclasses.replace(
                    rec,
                    from_device=self._device(i, rec.from_device),
                    at_s=rec.at_s / s,
                    resumed_device=(
                        None
                        if rec.resumed_device is None
                        else self._device(i, rec.resumed_device)
                    ),
                    resumed_s=(
                        None if rec.resumed_s is None else rec.resumed_s / s
                    ),
                    penalty_s=rec.penalty_s / s,
                ))
            self._preempts_seen[i] = len(log)
        return out

    def cache_counters(self) -> dict[str, float]:
        """The node caches' counters summed, hit rate derived once."""
        out: dict[str, float] = {}
        for session in self.sessions:
            for key, value in session.cache.snapshot().items():
                out[key] = out.get(key, 0.0) + value
        derive_hit_rate(out)
        return out

    def _device(self, index: int, kind: str) -> str:
        if not self._qualified:
            return kind
        return f"{self.fleet.nodes[index].name}:{kind}"

    # ------------------------------------------------------------------
    # Admission and placement
    # ------------------------------------------------------------------
    def admissible(self, job: Job) -> bool:
        """Can *some* node run the job under its cap?"""
        return self._place(job) is not None

    def _place(self, job: Job) -> tuple[int, WallSeconds] | None:
        """:meth:`_choose_node`, once per submission.

        The server asks :meth:`admissible` and then :meth:`submit` for the
        same job; the second ask reuses the first answer when it is the
        same job object and neither a node load nor a node cap (which a
        future-dated :meth:`set_cap` changes inside :meth:`advance`)
        moved in between — everything :meth:`_choose_node` reads.
        """
        caps = [session.cap_w for session in self.sessions]
        last = self._last_placement
        if (
            last is not None
            and last[0] is job
            and last[1] == self._load
            and last[2] == caps
        ):
            return last[3]
        placed = self._choose_node(job)
        self._last_placement = (job, list(self._load), caps, placed)
        return placed

    def _choose_node(self, job: Job) -> tuple[int, WallSeconds] | None:
        """Pick (node index, estimated wall time) for a submission.

        The admissible node with the lowest projected wall backlog wins;
        None when no node admits the job.  The estimate is memoized per
        (profile content, node cap): the first job of a shape profiles
        it once into the fleet's shape table, every later job of that
        shape is a dict lookup on every node.
        """
        hit = self._shape_of.get(id(job.profile))
        shape = self._profile_shape(job.profile) if hit is None else hit[1]
        best = None
        for i, session in enumerate(self.sessions):
            memo = self._placement[i]
            key = (shape, session.cap_w)
            if key not in memo:
                memo[key] = self._best_solo(i, shape, session.cap_w)
            est = memo[key]
            if est is None:
                continue
            projected = self._load[i] + est
            if best is None or projected < best[0]:
                best = (projected, i, est)
        return None if best is None else best[1:]

    def _profile_shape(self, profile: ProgramProfile) -> str:
        first = self.sessions[0]
        shape = fingerprint(first.processor, profile)
        self._shape_of[id(profile)] = (profile, shape)
        if shape not in self._shapes:
            self._shapes = extend_table(
                self._shapes,
                [Job(uid=shape, profile=profile)],
                cache=first.cache,
            )
            base = CoRunPredictor(first.processor, self._shapes, first.space)
            self._shape_predictors = tuple(
                node_predictor(base, node) for node in self.fleet.nodes
            )
        return shape

    def _best_solo(
        self, index: int, shape: str, cap: Watts
    ) -> WallSeconds | None:
        """Best standalone wall time on a node, or None if cap-infeasible.

        The node-scaled predictor folds speed into its times, so these
        are wall seconds already.
        """
        predictor = self._shape_predictors[index]
        times = [
            predictor.solo_time(shape, kind, f)
            for kind in DeviceKind
            for f in predictor.feasible_solo_levels(shape, kind, cap)
        ]
        return min(times) if times else None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def submit(
        self, job: Job, arrival_s: WallSeconds | None = None
    ) -> WallSeconds:
        """Place and inject ``job``; returns its wall-clock arrival.

        A job no node admits is parked on the first node, mirroring the
        single-session contract: submit accepts, and the node's cap
        policy late-rejects it on the next advance.
        """
        index, est = self._place(job) or (0, 0.0)
        node = self.fleet.nodes[index]
        native = (
            None if arrival_s is None else arrival_s * node.speed_scale
        )
        arrival_native = self.sessions[index].submit(job, native)
        self._owner[job.uid] = index
        self._est[job.uid] = est
        self._load[index] += est
        return arrival_native / node.speed_scale

    def set_cap(
        self, cap_w: Watts, at_s: WallSeconds | None = None
    ) -> WallSeconds:
        """Re-budget the fleet; each node keeps its original cap share.

        Returns the wall time the change takes effect: ``at_s`` when it
        lies in the future, otherwise now.
        """
        check_cap(cap_w)
        now = self.now
        future = at_s is not None and at_s > now + _EPS
        for session, share, scale in zip(
            self.sessions, self._shares, self._scales
        ):
            # A whole-fleet share passes the cap through untouched, so an
            # integer cap stays an integer in replies and in the log.
            node_cap = cap_w if share == 1.0 else cap_w * share
            session.set_cap(node_cap, at_s * scale if future else None)
        return at_s if future else now

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def _to_wall(
        self, index: int, record: CompletionRecord
    ) -> CompletionRecord:
        s = self.fleet.nodes[index].speed_scale
        return dataclasses.replace(
            record,
            kind=self._device(index, record.kind),
            arrival_s=record.arrival_s / s,
            start_s=record.start_s / s,
            finish_s=record.finish_s / s,
        )

    def _settle(self, index: int, record) -> None:
        """Release a finished/rejected job's share of the node backlog."""
        uid = record.job_id
        if self._owner.get(uid) == index:
            self._load[index] = max(
                0.0, self._load[index] - self._est.pop(uid, 0.0)
            )

    def _merge(
        self,
        per_node: list[tuple[list[CompletionRecord], list[LateRejection]]],
    ) -> tuple[list[CompletionRecord], list[LateRejection]]:
        completions: list[CompletionRecord] = []
        rejections: list[LateRejection] = []
        for i, (done, late) in enumerate(per_node):
            for record in done:
                self._settle(i, record)
                completions.append(self._to_wall(i, record))
            for rej in late:
                self._settle(i, rej)
                if self._qualified:
                    node = self.fleet.nodes[i].name
                    rej = dataclasses.replace(
                        rej, message=f"[{node}] {rej.message}"
                    )
                rejections.append(rej)
        completions.sort(key=lambda r: (r.finish_s, r.job_id))
        rejections.sort(key=lambda r: r.job_id)
        return completions, rejections

    def advance(
        self, until_s: WallSeconds
    ) -> tuple[list[CompletionRecord], list[LateRejection]]:
        """Advance every node to wall time ``until_s``."""
        now = self.now
        if until_s < now - _EPS:
            raise ValueError(f"cannot advance to {until_s}: clock is at {now}")
        per_node = [
            session.advance(
                max(until_s * node.speed_scale, session.now)
            )
            for session, node in zip(self.sessions, self.fleet.nodes)
        ]
        return self._merge(per_node)

    def drain(self) -> tuple[list[CompletionRecord], list[LateRejection]]:
        """Run every node until its queue and devices are empty."""
        return self._merge([session.drain() for session in self.sessions])
