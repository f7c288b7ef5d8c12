"""CI smoke check for the co-scheduling daemon.

Four scenarios, each against a freshly booted ``repro serve`` on an
ephemeral port:

* **basic** — submit one job, drain, assert it completed and the daemon
  shut down cleanly;
* **durable** — submit enough jobs against ``--durable`` that the store
  takes at least two incremental snapshots, kill the daemon without
  shutdown, restart over the same directory, and assert every
  acknowledged job was recovered (same ids, idempotency keys
  deduplicate) and the recovered queue runs, then kill it again and
  assert the store log verifies clean;
* **multi-tenant** — sharded daemon with a per-tenant quota: one tenant's
  burst hits ``tenant_quota`` while another tenant still gets in;
* **fleet** — durable daemon over a two-node heterogeneous fleet: submit,
  kill without shutdown, restart, and assert the recovered job completes
  on a node-qualified device and the store log verifies clean.

Exits non-zero on any deviation, printing the daemon's stderr for
diagnosis.
"""

from __future__ import annotations

import re
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.analysis.storecheck import verify_store_dir
from repro.service.client import ServiceClient
from repro.store import SQLiteEventLog

_BANNER_RE = re.compile(r"repro-service listening on ([\d.]+):(\d+)")

#: Jobs the durable scenario submits before the kill.  Each admitted
#: submission is two store events, so 1,100 jobs cross 2 x 1,024 events:
#: the killed daemon has taken at least two auto-snapshots, and recovery
#: loads an incremental one.
_DURABLE_JOBS = 1100
_SNAPSHOT_INTERVAL = 1024  # JobStore's default, which the daemon uses
_DURABLE_ADVANCE_S = 5.0


class SmokeFailure(RuntimeError):
    """One smoke scenario deviated from the contract."""


def _spawn(*extra_args: str) -> tuple[subprocess.Popen, str, int]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    banner = proc.stdout.readline()
    match = _BANNER_RE.search(banner)
    if match is None:
        stderr = proc.stderr.read()
        proc.kill()
        raise SmokeFailure(f"no banner in {banner!r}; stderr: {stderr}")
    return proc, match.group(1), int(match.group(2))


def _finish(proc: subprocess.Popen) -> None:
    """Wait for a daemon that was asked to shut down; fail on a bad exit."""
    code = proc.wait(timeout=60)
    if code != 0:
        raise SmokeFailure(f"daemon exited {code}: {proc.stderr.read()}")


def _smoke_basic() -> str:
    proc, host, port = _spawn()
    try:
        with ServiceClient(host, port) as client:
            accepted = client.submit("streamcluster")
            if accepted.state != "queued":
                raise SmokeFailure(f"submission not queued: {accepted}")
            drained = client.drain()
            finished = [c.job_id for c in drained.completions]
            if finished != [accepted.job_id]:
                raise SmokeFailure(
                    f"expected {accepted.job_id} done, got {finished}"
                )
            status = client.status()
            if status.queue_depth != 0 or status.completed != 1:
                raise SmokeFailure(f"bad final status: {status}")
            client.shutdown()
        _finish(proc)
        return (
            f"basic: {accepted.job_id} completed at "
            f"t={drained.now_s:.2f}s (virtual)"
        )
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)


def _smoke_durable() -> str:
    capacity = ("--queue-capacity", str(_DURABLE_JOBS))
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as durable:
        proc, host, port = _spawn("--durable", durable, *capacity)
        acked: list[str] = []
        try:
            with ServiceClient(host, port) as client:
                for i in range(_DURABLE_JOBS):
                    accepted = client.submit(
                        "cfd" if i % 2 else "lud",
                        scale=0.1,
                        uid=f"smoke-durable-{i}",
                        idempotency_key=f"smoke-key-{i}",
                    )
                    if accepted.state != "queued":
                        raise SmokeFailure(f"submission not queued: {accepted}")
                    acked.append(accepted.job_id)
        finally:
            # Hard kill: the acknowledged jobs must survive in the log.
            proc.kill()
            proc.wait(timeout=30)

        log = SQLiteEventLog(Path(durable) / "shard-0.sqlite")
        try:
            loaded = log.load_snapshot()
        finally:
            log.close()
        if loaded is None or loaded[0] < 2 * _SNAPSHOT_INTERVAL:
            raise SmokeFailure(
                f"expected two auto-snapshots before the kill, the last "
                f"covers seq {None if loaded is None else loaded[0]}"
            )

        proc, host, port = _spawn("--durable", durable, *capacity)
        try:
            with ServiceClient(host, port) as client:
                jobs = {j["job_id"] for j in client.jobs()}
                lost = [uid for uid in acked if uid not in jobs]
                if lost:
                    raise SmokeFailure(
                        f"{len(lost)} acknowledged jobs lost across "
                        f"restart: {lost[:5]}"
                    )
                # The first key lives in the earliest snapshot's rows, the
                # last one only in the replayed suffix.
                for i in (0, _DURABLE_JOBS - 1):
                    retry = client.submit(
                        "cfd", uid=f"smoke-retry-{i}",
                        idempotency_key=f"smoke-key-{i}",
                    )
                    if not retry.deduplicated or retry.job_id != acked[i]:
                        raise SmokeFailure(
                            f"idempotent retry not deduplicated: {retry}"
                        )
                # Draining 1,100 jobs is too slow for a smoke check; the first
                # completions show the recovered queue is schedulable.
                advanced = client.advance(_DURABLE_ADVANCE_S)
                finished = [c.job_id for c in advanced.completions]
                if not finished or not set(finished) <= set(acked):
                    raise SmokeFailure(
                        f"recovered jobs did not run: {finished}"
                    )
        finally:
            # A second kill: the store must verify clean mid-run too.
            proc.kill()
            proc.wait(timeout=30)
        violations = verify_store_dir(durable)
        if violations:
            raise SmokeFailure(f"durable store log is not clean: {violations}")
        return (
            f"durable: {len(acked)} jobs survived kill -9 across "
            f"incremental snapshots; {len(finished)} completed by "
            f"t={_DURABLE_ADVANCE_S:.0f}s (virtual)"
        )


def _smoke_multi_tenant() -> str:
    proc, host, port = _spawn("--shards", "2", "--tenant-quota", "2")
    try:
        with ServiceClient(host, port) as client:
            quota_hits = 0
            for i in range(4):
                reply = client.submit(
                    "lud", uid=f"smoke-a{i}", tenant="tenant-a"
                )
                code = getattr(reply, "code", None)
                if code == "tenant_quota":
                    quota_hits += 1
                elif reply.state != "queued":
                    raise SmokeFailure(f"unexpected reply: {reply}")
            if quota_hits != 2:
                raise SmokeFailure(
                    f"expected 2 tenant_quota rejections, got {quota_hits}"
                )
            other = client.submit("lud", uid="smoke-b0", tenant="tenant-b")
            if other.state != "queued":
                raise SmokeFailure(
                    f"other tenant blocked by a's quota: {other}"
                )
            drained = client.drain()
            if len(drained.completions) != 3:
                raise SmokeFailure(
                    f"expected 3 completions, got {drained.completions}"
                )
            client.shutdown()
        _finish(proc)
        return "multi-tenant: quota enforced per tenant across 2 shards"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)


def _smoke_fleet() -> str:
    fleet_args = (
        "--fleet-nodes", "big:2.0:1.3,small:0.6:0.5", "--fleet-budget", "30",
    )
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as durable:
        proc, host, port = _spawn(*fleet_args, "--durable", durable)
        try:
            with ServiceClient(host, port) as client:
                accepted = client.submit("lud", uid="smoke-fleet")
                if accepted.state != "queued":
                    raise SmokeFailure(f"submission not queued: {accepted}")
        finally:
            proc.kill()
            proc.wait(timeout=30)

        proc, host, port = _spawn(*fleet_args, "--durable", durable)
        try:
            with ServiceClient(host, port) as client:
                drained = client.drain()
                done = [(c.job_id, c.kind) for c in drained.completions]
                if [uid for uid, _ in done] != ["smoke-fleet"]:
                    raise SmokeFailure(
                        f"recovered fleet job did not complete: {done}"
                    )
                node = done[0][1].partition(":")[0]
                if node not in ("big", "small"):
                    raise SmokeFailure(f"device not node-qualified: {done}")
                client.shutdown()
            _finish(proc)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        violations = verify_store_dir(durable)
        if violations:
            raise SmokeFailure(f"fleet store log is not clean: {violations}")
        return f"fleet: smoke-fleet survived kill -9 and completed on {node}"


def main() -> int:
    try:
        for line in (
            _smoke_basic(),
            _smoke_durable(),
            _smoke_multi_tenant(),
            _smoke_fleet(),
        ):
            print(f"service smoke OK: {line}")
    except SmokeFailure as exc:
        print(f"service smoke FAILED: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
