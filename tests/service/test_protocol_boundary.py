"""Non-finite and mistyped numbers stop at the protocol boundary.

``json.loads`` accepts ``NaN``, ``Infinity`` and ``1e400``.  Each case
sends one bad request line through the front end and checks that the
reply is a structured ``protocol`` error, that the shard's store logged
nothing, and that the shard still serves a normal submit -> drain.
"""

import asyncio

import pytest

from repro.service import protocol
from repro.service.async_server import _Frontend
from repro.service.shard import ShardConfig, ShardSet

#: Request type -> its valid fields as raw JSON values.
_VALID = {
    "submit": {"program": '"cfd"'},
    "set_cap": {"cap_w": "12.0"},
    "advance": {"until_s": "1.0"},
}

_BAD = [
    ("submit", "scale", "NaN"),
    ("submit", "scale", "Infinity"),
    ("submit", "scale", "1e400"),
    ("submit", "scale", '"2"'),
    ("submit", "scale", "true"),
    ("submit", "arrival_s", "NaN"),
    ("submit", "arrival_s", "-Infinity"),
    ("submit", "arrival_s", '"0"'),
    ("submit", "priority", '"x"'),
    ("submit", "priority", "1.5"),
    ("submit", "priority", "NaN"),
    ("set_cap", "cap_w", "NaN"),
    ("set_cap", "cap_w", "Infinity"),
    ("set_cap", "cap_w", '"12"'),
    ("set_cap", "at_s", "NaN"),
    ("set_cap", "at_s", "1e400"),
    ("advance", "until_s", "NaN"),
    ("advance", "until_s", "Infinity"),
    ("advance", "until_s", '"5"'),
]


def _line(kind: str, fields: dict) -> bytes:
    body = "".join(f',"{name}":{raw}' for name, raw in fields.items())
    return f'{{"v":1,"type":"{kind}"{body}}}'.encode()


@pytest.fixture
def frontend():
    shards = ShardSet(ShardConfig())
    try:
        yield _Frontend(shards)
    finally:
        shards.close()


@pytest.mark.parametrize(("kind", "name", "raw"), _BAD)
def test_bad_number_is_a_protocol_error(frontend, kind, name, raw):
    line = _line(kind, {**_VALID[kind], name: raw})
    (reply,) = asyncio.run(frontend.process([line]))
    assert isinstance(reply, protocol.ErrorResponse)
    assert reply.code == "protocol"
    assert name in reply.message

    store = frontend.shards.shards[0].state.store
    assert len(store) == 0
    assert list(store.log.replay(0)) == []

    submitted, drained = asyncio.run(frontend.process([
        _line("submit", {"program": '"cfd"', "uid": '"ok"'}),
        _line("drain", {}),
    ]))
    assert isinstance(submitted, protocol.SubmitResponse)
    assert [c.job_id for c in drained.completions] == ["ok"]


def test_valid_numbers_still_decode():
    request = protocol.decode_request(
        b'{"v":1,"type":"submit","program":"cfd","scale":2,'
        b'"arrival_s":0.5,"priority":-3}'
    )
    assert (request.scale, request.arrival_s, request.priority) == (2, 0.5, -3)
    cap = protocol.decode_request(b'{"v":1,"type":"set_cap","cap_w":12}')
    assert cap.at_s is None
