"""The asyncio front end of the co-scheduling daemon.

One event loop accepts connections and speaks the same newline-JSON
protocol (and prints the same ``repro-service listening on HOST:PORT``
banner) as the legacy threaded server, but the scheduling work happens in
a :class:`~repro.service.shard.ShardSet`: submissions route to their
session's shard by tenant key; global operations (advance, drain, cap
changes, scrapes, shutdown) broadcast to every shard and merge.

Throughput comes from *batching*, not thread fan-out: a client that
pipelines requests gets them decoded, grouped by shard, dispatched as one
batch per shard (concurrently across shards), and answered in order —
so the per-request cost amortizes to JSON codec + one dict-driven handler
call, and acknowledgements still imply durability because each shard
group-commits its batch before responding.

Overload degrades gracefully by construction: admission answers
``backpressure`` in O(1) (no scheduling work), so a 2x overload yields
fast structured rejections for the excess, not a collapse of the goodput.
"""

from __future__ import annotations

import asyncio
import signal

from repro.hardware.calibration import DEFAULT_POWER_CAP_W
from repro.objective import Objective
from repro.service import protocol
from repro.service.metrics import merge_snapshots
from repro.service.shard import ShardConfig, ShardSet

_BANNER = "repro-service listening on"
#: Upper bound on decoded-but-unanswered requests per read chunk.
_READ_CHUNK = 1 << 16


class _Frontend:
    """Dispatch/merge logic shared by every connection."""

    def __init__(self, shards: ShardSet) -> None:
        self.shards = shards
        self.stopping = asyncio.Event()
        self.protocol_errors = 0

    # ------------------------------------------------------------------
    # Shard dispatch
    # ------------------------------------------------------------------
    async def _call(self, index: int, requests: list) -> list:
        pool = self.shards.pool(index)
        if pool is None:
            return self.shards.call_batch(index, requests)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            pool, self.shards.call_batch, index, requests
        )

    async def _broadcast(self, request) -> list:
        calls = [
            self._call(i, [request]) for i in range(len(self.shards))
        ]
        replies = await asyncio.gather(*calls)
        return [r[0] for r in replies]

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def _merge(self, request, replies: list):
        for reply in replies:
            if isinstance(reply, protocol.ErrorResponse):
                return reply
        first = replies[0]
        if isinstance(first, (protocol.AdvanceResponse, protocol.DrainResponse)):
            return type(first)(
                now_s=max(r.now_s for r in replies),
                completions=[c for r in replies for c in r.completions],
                rejections=[x for r in replies for x in r.rejections],
            )
        if isinstance(first, protocol.StatusResponse):
            return protocol.StatusResponse(
                now_s=max(r.now_s for r in replies),
                cap_w=first.cap_w,
                queue_depth=sum(r.queue_depth for r in replies),
                running=[uid for r in replies for uid in r.running],
                completed=sum(r.completed for r in replies),
                rejected=sum(r.rejected for r in replies),
                method=first.method,
                objective=first.objective,
                shards=len(self.shards),
            )
        if isinstance(first, protocol.MetricsResponse):
            merged = merge_snapshots([r.metrics for r in replies])
            merged["protocol_errors"] = (
                merged.get("protocol_errors", 0.0) + self.protocol_errors
            )
            merged["shards"] = float(len(self.shards))
            return protocol.MetricsResponse(metrics=merged)
        if isinstance(first, protocol.JobsResponse):
            return protocol.JobsResponse(
                jobs=[j for r in replies for j in r.jobs]
            )
        if isinstance(first, protocol.ShutdownResponse):
            return protocol.ShutdownResponse(
                now_s=max(r.now_s for r in replies),
                completions=[c for r in replies for c in r.completions],
            )
        return first  # CapResponse and friends: identical per shard

    # ------------------------------------------------------------------
    # Batch processing
    # ------------------------------------------------------------------
    async def process(self, lines: list[bytes]) -> list:
        """Decode, dispatch, and answer one pipelined batch, in order."""
        parsed: list = []
        for line in lines:
            if not line.strip():
                continue
            try:
                parsed.append(protocol.decode_request(line))
            except protocol.ProtocolError as exc:
                self.protocol_errors += 1
                parsed.append(
                    protocol.ErrorResponse(code="protocol", message=str(exc))
                )
        out: list = []
        i = 0
        while i < len(parsed):
            item = parsed[i]
            if isinstance(item, protocol.ErrorResponse):
                out.append(item)
                i += 1
                continue
            if isinstance(item, protocol.SubmitRequest):
                # Maximal run of consecutive submissions: independent
                # sessions, so shard sub-batches run concurrently while
                # responses keep their request order.
                j = i
                while j < len(parsed) and isinstance(
                    parsed[j], protocol.SubmitRequest
                ):
                    j += 1
                run = parsed[i:j]
                if len(self.shards) == 1:
                    # One shard: no routing, no reorder bookkeeping.
                    out.extend(await self._call(0, run))
                    i = j
                    continue
                by_shard: dict[int, list[tuple[int, protocol.SubmitRequest]]] = {}
                for offset, req in enumerate(run):
                    by_shard.setdefault(
                        self.shards.route(req.tenant), []
                    ).append((offset, req))
                slots: list = [None] * len(run)

                async def _one(index: int, members) -> None:
                    replies = await self._call(
                        index, [req for _, req in members]
                    )
                    for (offset, _), reply in zip(members, replies):
                        slots[offset] = reply

                await asyncio.gather(*(
                    _one(index, members)
                    for index, members in by_shard.items()
                ))
                out.extend(slots)
                i = j
                continue
            reply = self._merge(item, await self._broadcast(item))
            out.append(reply)
            i += 1
            if isinstance(reply, protocol.ShutdownResponse):
                self.stopping.set()
                break
        return out


async def _client_loop(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    frontend: _Frontend,
) -> None:
    buffer = b""
    try:
        while not frontend.stopping.is_set():
            chunk = await reader.read(_READ_CHUNK)
            if not chunk:
                break
            buffer += chunk
            if b"\n" not in buffer:
                continue
            whole, _, buffer = buffer.rpartition(b"\n")
            responses = await frontend.process(whole.split(b"\n"))
            if responses:
                writer.write(b"".join(protocol.encode(r) for r in responses))
                await writer.drain()
    except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


async def _serve_loop(
    host: str,
    port: int,
    frontend: _Frontend,
    *,
    announce,
    ready,
) -> None:
    server = await asyncio.start_server(
        lambda r, w: _client_loop(r, w, frontend), host, port
    )
    bound_host, bound_port = server.sockets[0].getsockname()[:2]
    message = f"{_BANNER} {bound_host}:{bound_port}"
    if announce is not None:
        announce(message)
    else:
        print(message, flush=True)
    if ready is not None:
        ready((bound_host, bound_port))

    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, frontend.stopping.set)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or platform without signal support

    async with server:
        await frontend.stopping.wait()
    # Graceful exit: drain every shard so no admitted work is abandoned,
    # then snapshot + close the stores.
    await frontend._broadcast(protocol.DrainRequest())


def serve_async(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    method: str = "hcs",
    cap_w: float = DEFAULT_POWER_CAP_W,
    objective: Objective | str = Objective.MAKESPAN,
    queue_capacity: int = 64,
    seed=None,
    shards: int = 1,
    worker_mode: str = "inline",
    durable_dir: str | None = None,
    tenant_quota: int | None = None,
    backlog_capacity: int = 0,
    fleet=None,
    announce=None,
    ready=None,
) -> int:
    """Run the async sharded daemon until shutdown; returns an exit code.

    The daemon's only listener: newline-JSON protocol, graceful
    SIGTERM/shutdown drain, durability (``durable_dir``), sharding
    (``shards`` / ``worker_mode``), multi-tenant admission
    (``tenant_quota`` / ``backlog_capacity``), and heterogeneous fleets
    (``fleet`` — a :class:`~repro.core.fleet.Fleet` or its ``to_dict()``
    payload; each shard then schedules over per-node sessions).
    """
    fleet_dict = (
        fleet.to_dict() if hasattr(fleet, "to_dict") else fleet
    )
    shard_set = ShardSet(
        ShardConfig(
            method=method,
            cap_w=cap_w,
            objective=Objective.coerce(objective).value,
            queue_capacity=queue_capacity,
            seed=seed,
            durable_dir=durable_dir,
            tenant_quota=tenant_quota,
            backlog_capacity=backlog_capacity,
            fleet=fleet_dict,
        ),
        shards=shards,
        worker_mode=worker_mode,
    )
    frontend = _Frontend(shard_set)
    try:
        asyncio.run(
            _serve_loop(host, port, frontend, announce=announce, ready=ready)
        )
    finally:
        shard_set.close()
    return 0
