"""Sharded scheduling sessions: inline (in-process) or worker processes.

Each shard owns one independent :class:`~repro.service.server.ServiceState`
— its own :class:`~repro.service.fleet.FleetSession`, queue, tenants, and
durable store file (``shard-<n>.sqlite``) — and submissions route to
shards by a stable hash of their session key (the tenant), so one
tenant's timeline always lands on the same shard, across connections
*and* across restarts.

Two worker modes:

``inline``
    All shards live in the listener process.  Zero IPC cost; the default.
``process``
    Each shard is a :mod:`multiprocessing` worker driving its state from
    a request pipe.  Requests travel in *batches* (one pickle round trip
    amortized over the whole pipelined batch), which is what keeps the
    10k+ submissions/s target reachable across process boundaries.
    Workers exit when the parent's pipe end disappears, so an orphaned
    worker never outlives a killed daemon.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.hardware.calibration import DEFAULT_POWER_CAP_W
from repro.service import protocol

_STOP = "__stop__"


@dataclass(frozen=True)
class ShardConfig:
    """Everything a worker needs to rebuild its state (picklable)."""

    shard_id: int = 0
    method: str = "hcs"
    cap_w: float = DEFAULT_POWER_CAP_W
    objective: str = "makespan"
    queue_capacity: int = 64
    seed: int | None = None
    durable_dir: str | None = None
    tenant_quota: int | None = None
    backlog_capacity: int = 0
    sanitize: bool | None = None
    #: ``Fleet.to_dict()`` payload (kept as a plain dict so the config
    #: pickles cheaply into spawn workers); None = ``Fleet.single(cap_w)``.
    fleet: dict | None = None


def build_state(config: ShardConfig):
    """Construct one shard's ServiceState (imports deferred: worker side)."""
    from repro.core.fleet import Fleet
    from repro.service.admission import TenantPolicy
    from repro.service.fleet import FleetSession
    from repro.service.server import ServiceState
    from repro.store.store import JobStore

    fleet = (
        Fleet.single(config.cap_w)
        if config.fleet is None
        else Fleet.from_dict(config.fleet)
    )
    session = FleetSession(
        fleet,
        method=config.method,
        objective=config.objective,
        seed=config.seed,
        sanitize=config.sanitize,
    )
    store = (
        JobStore.open(config.durable_dir, config.shard_id)
        if config.durable_dir is not None
        else None
    )
    return ServiceState(
        session,
        queue_capacity=config.queue_capacity,
        store=store,
        tenant_policy=TenantPolicy(
            quota=config.tenant_quota,
            backlog_capacity=config.backlog_capacity,
        ),
        shard_id=config.shard_id,
    )


class InlineShard:
    """A shard living in the listener process."""

    def __init__(self, config: ShardConfig) -> None:
        self.config = config
        self.state = build_state(config)

    def call_batch(self, requests: list) -> list:
        return self.state.handle_batch(requests)

    def close(self) -> None:
        self.state.close()


def _worker_main(conn, config: ShardConfig) -> None:  # pragma: no cover - child
    """Worker loop: batches in, batches out, exit on EOF or stop."""
    state = build_state(config)
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break  # parent is gone; flush and leave
            if message == _STOP:
                break
            try:
                responses = state.handle_batch(message)
            except Exception as exc:  # never kill the loop on one batch
                responses = [
                    protocol.ErrorResponse(code="internal", message=str(exc))
                ] * len(message)
            conn.send(responses)
    finally:
        state.close()
        conn.close()


class ProcessShard:
    """A shard behind a worker process and a duplex pipe."""

    def __init__(self, config: ShardConfig) -> None:
        self.config = config
        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main, args=(child, config), daemon=True
        )
        self.process.start()
        child.close()
        # One pipe, one outstanding batch: serialize callers.
        self._lock = threading.Lock()

    def call_batch(self, requests: list) -> list:
        with self._lock:
            self._conn.send(requests)
            return self._conn.recv()

    def close(self) -> None:
        with self._lock:
            try:
                self._conn.send(_STOP)
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
            self._conn.close()
        self.process.join(timeout=10)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()


class ShardSet:
    """Routes by session key; broadcasts and merges global operations."""

    def __init__(
        self,
        config: ShardConfig,
        *,
        shards: int = 1,
        worker_mode: str = "inline",
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if worker_mode not in ("inline", "process"):
            raise ValueError(f"unknown worker mode {worker_mode!r}")
        self.worker_mode = worker_mode
        self.config = config
        cls = InlineShard if worker_mode == "inline" else ProcessShard
        self.shards = [
            cls(dataclasses.replace(
                config,
                shard_id=i,
                seed=None if config.seed is None else config.seed + i,
            ))
            for i in range(shards)
        ]
        # Process shards get a dedicated dispatch thread each so the
        # asyncio loop can drive every pipe concurrently.
        self._pools = (
            [ThreadPoolExecutor(max_workers=1) for _ in self.shards]
            if worker_mode == "process"
            else None
        )

    def __len__(self) -> int:
        return len(self.shards)

    def route(self, session_key: str) -> int:
        """Stable shard index for a session key (crc32, not ``hash()`` —
        the builtin is salted per process and would reshuffle sessions
        across restarts)."""
        return zlib.crc32(session_key.encode("utf-8")) % len(self.shards)

    def call_batch(self, index: int, requests: list) -> list:
        return self.shards[index].call_batch(requests)

    def pool(self, index: int):
        return self._pools[index] if self._pools is not None else None

    def close(self) -> None:
        for shard in self.shards:
            shard.close()
        if self._pools is not None:
            for pool in self._pools:
                pool.shutdown(wait=False)
