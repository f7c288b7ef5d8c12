"""Tests for the asyncio front end: routing, merging, dedup, overload."""

import contextlib
import queue
import socket
import threading

from repro.service import protocol
from repro.service.async_server import serve_async
from repro.service.client import ServiceClient


@contextlib.contextmanager
def _server(**kwargs):
    """Run serve_async on an ephemeral port in a daemon thread."""
    ready: "queue.Queue[tuple[str, int]]" = queue.Queue()
    banners: list[str] = []
    thread = threading.Thread(
        target=serve_async,
        kwargs={
            "port": 0,
            "announce": banners.append,
            "ready": ready.put,
            **kwargs,
        },
        daemon=True,
    )
    thread.start()
    host, port = ready.get(timeout=30)
    try:
        yield host, port, banners
    finally:
        if thread.is_alive():
            with contextlib.suppress(OSError):
                with ServiceClient(host, port) as client:
                    client.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()


class TestFrontendBasics:
    def test_banner_contract(self):
        with _server() as (host, port, banners):
            assert banners and banners[0].startswith(
                f"repro-service listening on {host}:{port}"
            )

    def test_submit_advance_drain_lifecycle(self):
        with _server() as (host, port, _):
            with ServiceClient(host, port) as client:
                accepted = client.submit("lud")
                assert accepted.state == "queued"
                done = client.drain()
                assert [c.job_id for c in done.completions] == [
                    accepted.job_id
                ]
                status = client.status()
                assert status.completed == 1
                assert status.shards == 1

    def test_protocol_error_answered_inline_without_dropping(self):
        with _server() as (host, port, _):
            sock = socket.create_connection((host, port))
            try:
                sock.sendall(
                    b'{"v":1,"type":"nonsense"}\n'
                    + protocol.encode(protocol.StatusRequest())
                )
                with sock.makefile("rb") as rf:
                    error = protocol.decode_response(rf.readline())
                    status = protocol.decode_response(rf.readline())
                assert isinstance(error, protocol.ErrorResponse)
                assert error.code == "protocol"
                assert isinstance(status, protocol.StatusResponse)
            finally:
                sock.close()

    def test_protocol_errors_surface_in_metrics(self):
        with _server() as (host, port, _):
            sock = socket.create_connection((host, port))
            try:
                sock.sendall(b"not json\n")
                with sock.makefile("rb") as rf:
                    protocol.decode_response(rf.readline())
            finally:
                sock.close()
            with ServiceClient(host, port) as client:
                assert client.metrics()["protocol_errors"] >= 1.0

    def test_idempotent_resubmission_is_deduplicated(self):
        with _server() as (host, port, _):
            with ServiceClient(host, port) as client:
                first = client.submit("lud", idempotency_key="retry-1")
                again = client.submit("cfd", idempotency_key="retry-1")
                assert again.job_id == first.job_id
                assert again.deduplicated and not first.deduplicated
                # Only one job actually exists.
                assert len(client.jobs()) == 1


class TestShardedFrontend:
    def test_tenants_land_on_stable_shards_and_merges_sum(self):
        with _server(shards=2) as (host, port, _):
            with ServiceClient(host, port) as client:
                ids = set()
                for i in range(8):
                    accepted = client.submit("lud", tenant=f"tenant-{i}")
                    assert accepted.state == "queued"
                    ids.add(accepted.job_id)
                assert len(ids) == 8
                status = client.status()
                assert status.shards == 2
                assert status.queue_depth == 8

                done = client.drain()
                assert {c.job_id for c in done.completions} == ids
                status = client.status()
                assert status.completed == 8 and status.queue_depth == 0

                jobs = client.jobs()
                assert len(jobs) == 8
                assert {j["state"] for j in jobs} == {"done"}

    def test_same_tenant_serializes_on_one_shard(self):
        with _server(shards=4) as (host, port, _):
            with ServiceClient(host, port) as client:
                for _ in range(6):
                    client.submit("srad", tenant="acme")
                # One shard holds the whole session; the others are empty,
                # so the summed queue depth equals the tenant's backlog.
                assert client.status().queue_depth == 6
                client.drain()
                assert client.status().completed == 6

    def test_cap_change_broadcasts_to_every_shard(self):
        with _server(shards=2) as (host, port, _):
            with ServiceClient(host, port) as client:
                cap = client.set_cap(12.0)
                assert cap.cap_w == 12.0
                # Jobs routed to both shards see the new cap at admission.
                for i in range(8):
                    client.submit("lud", tenant=f"tenant-{i}")
                done = client.drain()
                assert all(
                    c.cap_at_start_w == 12.0 for c in done.completions
                )

    def test_metrics_merge_counts_all_shards(self):
        with _server(shards=2) as (host, port, _):
            with ServiceClient(host, port) as client:
                for i in range(4):
                    client.submit("lud", tenant=f"tenant-{i}")
                client.drain()
                metrics = client.metrics()
                assert metrics["shards"] == 2.0
                assert metrics["submitted"] == 4.0
                assert metrics["completed"] == 4.0

    def test_process_worker_mode_round_trip(self):
        with _server(shards=2, worker_mode="process") as (host, port, _):
            with ServiceClient(host, port) as client:
                ids = {
                    client.submit("lud", tenant=f"tenant-{i}").job_id
                    for i in range(4)
                }
                done = client.drain()
                assert {c.job_id for c in done.completions} == ids


class TestAdmissionUnderOverload:
    def test_quota_rejects_the_excess_per_tenant(self):
        with _server(tenant_quota=2) as (host, port, _):
            with ServiceClient(host, port) as client:
                replies = [client.submit("lud", tenant="acme") for _ in range(4)]
                states = [
                    getattr(r, "state", None) or r.code for r in replies
                ]
                assert states[:2] == ["queued", "queued"]
                assert all(code == "tenant_quota" for code in states[2:])
                # The other tenant is unaffected.
                other = client.submit("lud", tenant="umbrella")
                assert other.state == "queued"

    def test_full_queue_backpressure_is_structured(self):
        with _server(queue_capacity=2) as (host, port, _):
            with ServiceClient(host, port) as client:
                replies = [client.submit("lud") for _ in range(4)]
                assert [r.state for r in replies[:2]] == ["queued", "queued"]
                assert all(r.code == "backpressure" for r in replies[2:])
                # Rejected work is refused, not lost track of: draining
                # completes exactly the admitted jobs.
                done = client.drain()
                assert len(done.completions) == 2

    def test_backlog_holds_then_promotes_by_priority(self):
        with _server(queue_capacity=1, backlog_capacity=8) as (
            host,
            port,
            _,
        ):
            with ServiceClient(host, port) as client:
                first = client.submit("lud")
                assert first.state == "queued"
                low = client.submit("cfd", priority=0)
                high = client.submit("srad", priority=5)
                assert {low.state, high.state} == {"held"}
                done = client.drain()
                finished = [c.job_id for c in done.completions]
                assert finished[0] == first.job_id
                # The held high-priority submission overtakes the low one.
                assert finished.index(high.job_id) < finished.index(low.job_id)


class TestDurableFrontend:
    def test_durable_shards_write_one_file_each(self, tmp_path):
        with _server(shards=2, durable_dir=tmp_path.as_posix()) as (
            host,
            port,
            _,
        ):
            with ServiceClient(host, port) as client:
                for i in range(6):
                    client.submit("lud", tenant=f"tenant-{i}")
                client.drain()
        assert (tmp_path / "shard-0.sqlite").exists()
        assert (tmp_path / "shard-1.sqlite").exists()

    def test_restart_recovers_acknowledged_jobs(self, tmp_path):
        with _server(durable_dir=tmp_path.as_posix()) as (host, port, _):
            with ServiceClient(host, port) as client:
                accepted = client.submit("lud", idempotency_key="k1")
        # New daemon, same directory: the job (completed by the shutdown
        # drain) is still known, and its idempotency key still hits.
        with _server(durable_dir=tmp_path.as_posix()) as (host, port, _):
            with ServiceClient(host, port) as client:
                jobs = {j["job_id"]: j for j in client.jobs()}
                assert accepted.job_id in jobs
                again = client.submit("lud", idempotency_key="k1")
                assert again.deduplicated
                assert again.job_id == accepted.job_id


class TestShutdownSemantics:
    def test_shutdown_drains_and_reports_completions(self):
        with _server() as (host, port, _):
            with ServiceClient(host, port) as client:
                accepted = client.submit("lud")
                bye = client.shutdown()
                assert [c.job_id for c in bye.completions] == [
                    accepted.job_id
                ]

    def test_requests_after_shutdown_in_same_batch_are_dropped(self):
        with _server() as (host, port, _):
            sock = socket.create_connection((host, port))
            try:
                sock.sendall(
                    protocol.encode(protocol.ShutdownRequest())
                    + protocol.encode(protocol.StatusRequest())
                )
                with sock.makefile("rb") as rf:
                    bye = protocol.decode_response(rf.readline())
                    assert isinstance(bye, protocol.ShutdownResponse)
                    # The batch stops at shutdown; the trailing status
                    # gets no answer and the connection closes.
                    assert rf.readline() == b""
            finally:
                sock.close()
