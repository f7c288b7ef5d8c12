"""``service-mixed``: the service driven in process on a durable store.

Requests travel the daemon's own path without a socket:
``protocol.decode_request`` -> ``ServiceState.handle_batch`` ->
``protocol.encode``, on a state built by ``build_state`` over SQLite
shard logs.  One unit is a fresh pair of phases:

* **Phase A (ingest, closed loop, one client):** submissions over 16
  tenants and 8 programs in pipelined batches of 16, with reads beside the
  writes: a ``status`` in every batch, ``metrics`` every 16th batch,
  ``jobs`` every 64th.  It loads decode, admission, the store fold, SQLite
  group commit, snapshots and encode.
* **Phase B (online):** a fresh state; jobs carry explicit virtual
  ``arrival_s`` at a fixed gap, with an ``advance`` after every 2-4
  submits, a ``set_cap`` trace alternating 15 and 12 W, then ``drain``.
  It loads the service's own scheduler and SimCore; the gap keeps the
  queue a few dozen jobs deep, where ``advance`` cost grows with depth.

An op is one protocol request; a latency sample is one batch, from
decoding its request lines to encoding its replies.
"""

from __future__ import annotations

import shutil
import tempfile

from repro.analysis.storecheck import verify_store_dir
from repro.service import protocol
from repro.service.shard import ShardConfig, build_state
from repro.util.rng import default_rng
from repro.workload.rodinia import rodinia_programs

from bench.stats import P99_MIN_SAMPLES, percentile
from bench.workloads import Workload

PROGRAMS = tuple(program.name for program in rodinia_programs())
TENANTS = 16
BATCH = 16
INGEST_JOBS = 8000
ONLINE_JOBS = 100
#: Virtual seconds between Phase B arrivals.
ARRIVAL_GAP_S = 16.0
#: Phase B submits this many jobs between advances, in a seeded order.
ONLINE_BATCH_SIZES = (2, 3, 4)
CAP_TRACE_W = (12.0, 15.0)
CAP_EVERY = 8

_EXPECTED_REPLY = {
    protocol.SubmitRequest: protocol.SubmitResponse,
    protocol.StatusRequest: protocol.StatusResponse,
    protocol.MetricsRequest: protocol.MetricsResponse,
    protocol.JobsRequest: protocol.JobsResponse,
    protocol.AdvanceRequest: protocol.AdvanceResponse,
    protocol.SetCapRequest: protocol.CapResponse,
    protocol.DrainRequest: protocol.DrainResponse,
}


class ServiceMixed(Workload):
    name = "service-mixed"

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(workdir)
        rng = default_rng(seed)
        ingest = INGEST_JOBS if not smoke else 256
        online = ONLINE_JOBS if not smoke else 12
        self.ingest = [
            self._ingest_batch(rng, b) for b in range(ingest // BATCH)
        ]
        self.online = self._online_script(rng, online)
        self.online_jobs = online
        self.config_seed = int(rng.integers(2**31))

    def _ingest_batch(self, rng, b: int) -> list[bytes]:
        programs = _shuffled(rng, PROGRAMS * (BATCH // len(PROGRAMS)))
        requests = [
            protocol.SubmitRequest(
                program=program,
                uid=f"a{b * BATCH + i}",
                tenant=f"tenant-{(b * BATCH + i) % TENANTS}",
            )
            for i, program in enumerate(programs)
        ]
        requests.append(protocol.StatusRequest())
        if b % 16 == 15:
            requests.append(protocol.MetricsRequest())
        if b % 64 == 63:
            requests.append(protocol.JobsRequest())
        return [protocol.encode(r) for r in requests]

    def _online_script(self, rng, jobs: int) -> list[list[bytes]]:
        # Every seed gets the same program mix and batch sizes, in its own
        # order, so the seed moves the schedule, not the amount of work.
        programs = []
        while len(programs) < jobs:
            programs += _shuffled(rng, PROGRAMS)
        sizes = []
        while sum(sizes) < jobs:
            sizes += _shuffled(rng, ONLINE_BATCH_SIZES)
        script = []
        k = 0
        for size in sizes:
            if k == jobs:
                break
            requests = []
            for _ in range(min(size, jobs - k)):
                requests.append(protocol.SubmitRequest(
                    program=programs[k],
                    uid=f"b{k}",
                    tenant=f"tenant-{k % TENANTS}",
                    arrival_s=k * ARRIVAL_GAP_S,
                ))
                k += 1
            requests.append(
                protocol.AdvanceRequest(until_s=(k - 1) * ARRIVAL_GAP_S)
            )
            requests.append(protocol.StatusRequest())
            if len(script) % CAP_EVERY == CAP_EVERY - 1:
                cap = CAP_TRACE_W[(len(script) // CAP_EVERY) % len(CAP_TRACE_W)]
                requests.append(protocol.SetCapRequest(cap_w=cap))
            script.append([protocol.encode(r) for r in requests])
        script.append([protocol.encode(protocol.DrainRequest())])
        return script

    def units(self) -> list:
        return [self._scenario]

    def warmup(self) -> None:
        root = tempfile.mkdtemp(dir=self.workdir)
        try:
            state = self._state(root, len(self.ingest[0]))
            state.handle_batch([protocol.decode_request(l) for l in self.ingest[0]])
            state.close()
        finally:
            shutil.rmtree(root)

    def _state(self, durable_dir: str, capacity: int):
        return build_state(ShardConfig(
            durable_dir=durable_dir,
            queue_capacity=capacity,
            seed=self.config_seed,
        ))

    def _batch(self, rec, state, lines, series=None) -> list:
        """Serve one pipelined batch; returns ``(request, reply)`` pairs."""
        with rec.op(len(lines), series=series):
            requests = [protocol.decode_request(line) for line in lines]
            replies = state.handle_batch(requests)
            b"".join(protocol.encode(reply) for reply in replies)
        return list(zip(requests, replies))

    def _scenario(self, rec) -> None:
        requests = sum(len(b) for b in self.ingest) + sum(len(b) for b in self.online)
        self.attempted += requests
        root = tempfile.mkdtemp(dir=self.workdir)
        try:
            outcome = self._phases(rec, root)
        except Exception:
            self.crash(requests)
            return
        finally:
            shutil.rmtree(root)
        with self.check():
            completions, depth, appended = outcome
            if self.first_run("scenario"):
                turnarounds = [c.turnaround_s for c in completions]
                self.note("turnaround_p50_s", percentile(turnarounds, 0.50))
                self.note("turnaround_p99_s", percentile(turnarounds, 0.99))
                self.note("service.queue_depth_max", depth)
                self.note("store.events_appended", appended)
            self.same_as_first(
                "scenario",
                (sorted((c.job_id, c.finish_s) for c in completions), depth, appended),
                count=requests,
            )

    def _phases(self, rec, root: str):
        ingest_dir, online_dir = f"{root}/ingest", f"{root}/online"
        submitted = len(self.ingest) * BATCH
        state = self._state(ingest_dir, submitted + BATCH)
        accepted = 0
        for lines in self.ingest:
            pairs = self._batch(rec, state, lines, series="ingest")
            with self.check():
                accepted = self._check_replies(pairs, accepted)
        state.close()
        appended = state.store.applied_seq

        state = self._state(online_dir, self.online_jobs + BATCH)
        completions = []
        depth = 0
        for i, lines in enumerate(self.online):
            # Every batch but the final drain carries an advance.
            series = "advance" if i < len(self.online) - 1 else None
            pairs = self._batch(rec, state, lines, series=series)
            with self.check():
                self._check_replies(pairs, 0)
                for _, reply in pairs:
                    if isinstance(reply, protocol.StatusResponse):
                        depth = max(depth, reply.queue_depth)
                    if isinstance(reply, (protocol.AdvanceResponse, protocol.DrainResponse)):
                        completions.extend(reply.completions)
        state.close()
        appended += state.store.applied_seq

        with self.check():
            done = sorted(c.job_id for c in completions)
            if done != sorted(f"b{k}" for k in range(self.online_jobs)):
                self.fail(1, "Phase B did not complete every job exactly once")
            if submitted != accepted:
                self.fail(submitted - accepted, "Phase A did not queue every job")
            for directory in (ingest_dir, online_dir):
                violations = verify_store_dir(directory)
                if violations:
                    self.fail(len(violations), "; ".join(map(str, violations[:5])))
        return completions, depth, appended

    def _check_replies(self, pairs, queued: int) -> int:
        """Count queued submissions; fail every unexpected reply."""
        for request, reply in pairs:
            wanted = _EXPECTED_REPLY[type(request)]
            if type(reply) is not wanted:
                self.fail(1, f"{type(request).__name__} answered with {reply!r}")
            elif isinstance(reply, protocol.SubmitResponse):
                if reply.state != "queued":
                    self.fail(1, f"submission {reply.job_id} was {reply.state}")
                else:
                    queued += 1
            elif isinstance(reply, protocol.JobsResponse) and len(reply.jobs) != queued:
                self.fail(1, f"jobs listed {len(reply.jobs)} of {queued}")
            elif isinstance(reply, (protocol.AdvanceResponse, protocol.DrainResponse)):
                if reply.rejections:
                    self.fail(len(reply.rejections), f"late rejections: {reply.rejections}")
        return queued

    def diagnostics(self, rec) -> dict[str, float]:
        out = {name: values[0] for name, values in self.quality.items()}
        advance = rec.series.get("advance")
        if advance:
            out["advance_p50_ms"] = percentile(advance, 0.50)
            out["advance_p90_ms"] = percentile(advance, 0.90)
        ingest = rec.series.get("ingest", [])
        if len(ingest) >= P99_MIN_SAMPLES:
            out["ingest_p99_ms"] = percentile(ingest, 0.99)
        return out


def _shuffled(rng, items) -> list:
    return [items[i] for i in rng.permutation(len(items))]
