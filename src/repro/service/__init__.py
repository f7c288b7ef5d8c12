"""repro.service — the online co-scheduling daemon.

Turns the batch reproduction into a running service: a long-lived daemon
(:func:`~repro.service.async_server.serve_async`, ``repro serve`` on the
command line) accepts job submissions over a newline-delimited JSON
protocol, admits them against a bounded queue with backpressure and
per-tenant quotas, schedules arrived jobs with any method from the
``repro.core`` registry whenever a processor idles, reacts to live
power-cap events mid-run, shards independent sessions across workers,
and — with a durable directory — journals every job state transition
through :mod:`repro.store` so acknowledged work survives ``kill -9``.
The store's event fold is the daemon's one job table: queue depth comes
from the scheduling session and per-tenant live counts from the fold.
See ``docs/API.md`` for the protocol schema and ``docs/SERVICE.md`` for
the architecture (store, shards, admission, recovery).

The deprecated threaded listener (``repro.service.server.serve`` /
``repro serve --legacy-server``) has been removed; the asyncio front end
is the only listener.
"""

from repro.service.async_server import serve_async
from repro.service.client import ServiceClient, ServiceError, ServiceUnavailable
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_request,
    decode_response,
    encode,
)
from repro.service.server import ServiceState
from repro.service.session import (
    CompletionRecord,
    LateRejection,
    ServiceSession,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode_request",
    "decode_response",
    "encode",
    "ServiceMetrics",
    "CompletionRecord",
    "LateRejection",
    "ServiceSession",
    "ServiceState",
    "serve_async",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
]
