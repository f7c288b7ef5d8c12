"""Wire protocol of the co-scheduling daemon.

Newline-delimited JSON, one message per line, both directions.  Every
message carries a protocol version (``"v"``) and a discriminator
(``"type"``); the remaining keys map 1:1 onto the fields of the dataclass
registered for that type.  The codec is strict — unknown types, unknown
fields, missing required fields, and version mismatches all raise
:class:`ProtocolError` — so incompatible clients fail loudly at the first
message instead of mis-scheduling silently.  Numeric request fields must
be finite JSON numbers (``json`` accepts ``NaN``, ``Infinity`` and
``1e400``; the codec does not) and ``priority`` an integer.

Requests::

    {"v": 1, "type": "submit", "program": "cfd", "scale": 1.0}
    {"v": 1, "type": "submit", "program": "cfd", "objective": "energy"}
    {"v": 1, "type": "set_cap", "cap_w": 12.0}
    {"v": 1, "type": "advance", "until_s": 40.0}
    {"v": 1, "type": "status"} | {"type": "metrics"} | {"type": "jobs"}
    {"v": 1, "type": "drain"} | {"type": "shutdown"}

Responses mirror the same envelope with types ``submitted``, ``rejected``,
``cap``, ``advanced``, ``drained``, ``status``, ``metrics``, ``jobs``,
``bye``, and ``error``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field

PROTOCOL_VERSION = 1


class ProtocolError(ValueError):
    """A malformed, unknown, or version-incompatible message."""


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SubmitRequest:
    """Submit one job: a calibrated program name plus an input scale.

    ``objective`` (``"makespan"``/``"energy"``/``"edp"``), when given, pins
    the scheduling objective the client expects the daemon to optimize; a
    daemon serving a different objective rejects the submission with code
    ``objective_mismatch`` rather than silently scheduling the job under
    different semantics.

    Multi-tenant fields (all optional, defaulted for v1 compatibility):
    ``tenant`` names the submitting party for quota accounting and shard
    routing; ``priority`` orders a tenant's backlog (higher drains first);
    ``idempotency_key`` makes the submission retry-safe — resubmitting
    the same key returns the original job's acknowledgement instead of
    scheduling a second copy.
    """

    program: str
    scale: float = 1.0
    uid: str | None = None
    arrival_s: float | None = None
    objective: str | None = None
    tenant: str = "default"
    priority: int = 0
    idempotency_key: str | None = None


@dataclass(frozen=True)
class SetCapRequest:
    """Change the power cap, now (``at_s=None``) or at a future time."""

    cap_w: float
    at_s: float | None = None


@dataclass(frozen=True)
class AdvanceRequest:
    """Advance the virtual timeline to ``until_s``."""

    until_s: float


@dataclass(frozen=True)
class StatusRequest:
    pass


@dataclass(frozen=True)
class MetricsRequest:
    pass


@dataclass(frozen=True)
class JobsRequest:
    pass


@dataclass(frozen=True)
class DrainRequest:
    """Run the timeline until every queued and running job completed."""


@dataclass(frozen=True)
class ShutdownRequest:
    """Drain in-flight jobs, then stop the daemon."""


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SubmitResponse:
    job_id: str
    state: str
    arrival_s: float
    queue_depth: int
    #: True when an idempotency key matched an earlier submission and this
    #: acknowledgement echoes that job instead of creating a new one.
    deduplicated: bool = False


@dataclass(frozen=True)
class RejectionResponse:
    """Structured admission rejection (backpressure, infeasible cap, ...)."""

    code: str
    message: str
    job_id: str | None = None
    cap_w: float | None = None


@dataclass(frozen=True)
class ErrorResponse:
    code: str
    message: str


@dataclass(frozen=True)
class CapResponse:
    cap_w: float
    at_s: float


@dataclass(frozen=True)
class CompletionInfo:
    """One finished job, as reported on the wire."""

    job_id: str
    program: str
    kind: str
    arrival_s: float
    start_s: float
    finish_s: float
    turnaround_s: float
    cap_at_start_w: float
    cpu_ghz: float
    gpu_ghz: float
    power_at_start_w: float
    #: start-power × wall-time energy estimate (J) — the per-objective
    #: accounting the daemon aggregates in its metrics scrape.
    energy_est_j: float = 0.0


@dataclass(frozen=True)
class AdvanceResponse:
    now_s: float
    completions: list[CompletionInfo] = field(default_factory=list)
    rejections: list[RejectionResponse] = field(default_factory=list)


@dataclass(frozen=True)
class DrainResponse:
    now_s: float
    completions: list[CompletionInfo] = field(default_factory=list)
    rejections: list[RejectionResponse] = field(default_factory=list)


@dataclass(frozen=True)
class StatusResponse:
    now_s: float
    cap_w: float
    queue_depth: int
    running: list[str]
    completed: int
    rejected: int
    method: str
    objective: str = "makespan"
    #: Number of independent scheduling shards behind this daemon.
    shards: int = 1


@dataclass(frozen=True)
class MetricsResponse:
    metrics: dict[str, float]


@dataclass(frozen=True)
class JobsResponse:
    jobs: list[dict]


@dataclass(frozen=True)
class ShutdownResponse:
    now_s: float
    completions: list[CompletionInfo] = field(default_factory=list)


_REQUEST_TYPES = {
    "submit": SubmitRequest,
    "set_cap": SetCapRequest,
    "advance": AdvanceRequest,
    "status": StatusRequest,
    "metrics": MetricsRequest,
    "jobs": JobsRequest,
    "drain": DrainRequest,
    "shutdown": ShutdownRequest,
}

_RESPONSE_TYPES = {
    "submitted": SubmitResponse,
    "rejected": RejectionResponse,
    "error": ErrorResponse,
    "cap": CapResponse,
    "advanced": AdvanceResponse,
    "drained": DrainResponse,
    "status": StatusResponse,
    "metrics": MetricsResponse,
    "jobs": JobsResponse,
    "bye": ShutdownResponse,
}

# Class -> wire name.  Request and response namespaces overlap (e.g.
# "status" names both a request and a response), so invert each table on
# its own rather than merging by name first.
_TYPE_OF = {
    cls: name
    for table in (_REQUEST_TYPES, _RESPONSE_TYPES)
    for name, cls in table.items()
}

#: Fields that hold lists of nested message dataclasses, per class.
_NESTED = {
    AdvanceResponse: {
        "completions": CompletionInfo, "rejections": RejectionResponse,
    },
    DrainResponse: {
        "completions": CompletionInfo, "rejections": RejectionResponse,
    },
    ShutdownResponse: {"completions": CompletionInfo},
}


#: Class -> field names, precomputed so the encode hot path never calls
#: ``dataclasses.fields`` (or ``asdict``, whose deepcopy dominated the
#: submission benchmark) per message.
_FIELD_NAMES = {
    cls: tuple(f.name for f in dataclasses.fields(cls)) for cls in _TYPE_OF
}
_FIELD_NAMES[CompletionInfo] = tuple(
    f.name for f in dataclasses.fields(CompletionInfo)
)


def _json_default(value):
    """``json.dumps`` hook for nested message dataclasses.

    Invoked only when the serializer meets a non-JSON value, so flat
    messages (the submission hot path) pay nothing for nesting support.
    """
    names = _FIELD_NAMES.get(type(value))
    if names is not None:
        return {name: getattr(value, name) for name in names}
    raise TypeError(
        f"{type(value).__name__} is not JSON-serializable protocol data"
    )


def encode(message) -> bytes:
    """Serialize a request/response dataclass to one JSON line."""
    try:
        kind = _TYPE_OF[type(message)]
        names = _FIELD_NAMES[type(message)]
    except KeyError:
        raise ProtocolError(
            f"{type(message).__name__} is not a protocol message"
        ) from None
    payload = {"v": PROTOCOL_VERSION, "type": kind}
    for name in names:
        payload[name] = getattr(message, name)
    return (
        json.dumps(payload, separators=(",", ":"), default=_json_default)
        + "\n"
    ).encode()


#: Class -> (allowed field names, required field names), computed once —
#: rebuilding these sets per message dominated decode in the throughput
#: profile.
_BUILD_TABLES: dict[type, tuple[frozenset, frozenset]] = {}


def _build_tables(cls) -> tuple[frozenset, frozenset]:
    cached = _BUILD_TABLES.get(cls)
    if cached is None:
        fields = dataclasses.fields(cls)
        cached = _BUILD_TABLES[cls] = (
            frozenset(f.name for f in fields),
            frozenset(
                f.name
                for f in fields
                if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING
            ),
        )
    return cached


def _raise_build_error(cls, fields, exc) -> None:
    """Turn a failed construction into a precise :class:`ProtocolError`."""
    if not isinstance(fields, dict):
        raise ProtocolError(
            f"bad {cls.__name__}: expected a JSON object"
        ) from None
    allowed, required = _build_tables(cls)
    unknown = set(fields) - allowed
    if unknown:
        raise ProtocolError(
            f"unknown field(s) for {cls.__name__}: {', '.join(sorted(unknown))}"
        )
    missing = required - set(fields)
    if missing:
        raise ProtocolError(
            f"missing field(s) for {cls.__name__}: {', '.join(sorted(missing))}"
        )
    raise ProtocolError(f"bad {cls.__name__}: {exc}") from None


def _build(cls, fields: dict):
    # Happy path: construct directly and let the dataclass reject unknown
    # or missing fields — the set-based diagnosis below runs only when
    # something is actually wrong, keeping the per-message cost at one
    # constructor call.
    nested = _NESTED.get(cls)
    if nested is not None and isinstance(fields, dict):
        fields = dict(fields)
        for name, item_cls in nested.items():
            if name in fields:
                fields[name] = [_build(item_cls, item) for item in fields[name]]
    try:
        return cls(**fields)
    except (TypeError, ValueError) as exc:
        _raise_build_error(cls, fields, exc)


def _decode(line: str | bytes, table: dict):
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ProtocolError("empty message")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("message must be a JSON object")
    version = payload.pop("v", None)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this daemon speaks v{PROTOCOL_VERSION})"
        )
    kind = payload.pop("type", None)
    try:
        cls = table[kind]
    except KeyError:
        raise ProtocolError(f"unknown message type {kind!r}") from None
    return _build(cls, payload)


#: Request class -> (finite-number fields, integer fields).  A ``None``
#: value passes for an optional field (its default).
_NUMERIC_FIELDS: dict[type, tuple[tuple[str, ...], tuple[str, ...]]] = {
    SubmitRequest: (("scale", "arrival_s"), ("priority",)),
    SetCapRequest: (("cap_w", "at_s"), ()),
    AdvanceRequest: (("until_s",), ()),
}


def _is_finite_number(value) -> bool:
    # type() rather than isinstance(): JSON true/false decode to bool, an
    # int subclass that is not a number on the wire.  The bound rejects
    # NaN and infinities, and integers too large for a float.
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _check_numbers(request) -> None:
    spec = _NUMERIC_FIELDS.get(type(request))
    if spec is None:
        return
    finite, integral = spec
    for name in finite:
        value = getattr(request, name)
        if value is not None and not _is_finite_number(value):
            raise ProtocolError(
                f"bad {type(request).__name__}: {name} must be a finite "
                f"number, got {value!r}"
            )
    for name in integral:
        value = getattr(request, name)
        if type(value) is not int:
            raise ProtocolError(
                f"bad {type(request).__name__}: {name} must be an integer, "
                f"got {value!r}"
            )


def decode_request(line: str | bytes):
    """Parse one request line into its dataclass (or raise ProtocolError)."""
    request = _decode(line, _REQUEST_TYPES)
    _check_numbers(request)
    return request


def decode_response(line: str | bytes):
    """Parse one response line into its dataclass (or raise ProtocolError)."""
    return _decode(line, _RESPONSE_TYPES)
