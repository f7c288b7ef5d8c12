"""The fleet service facade: FleetSession and the fleet-backed daemon."""

from __future__ import annotations

import contextlib
import queue
import threading

import pytest

from repro.core.fleet import Fleet, Node
from repro.service.fleet import FleetSession
from repro.service.session import ServiceSession
from repro.workload.program import Job

FLEET = Fleet(
    nodes=(
        Node("big", speed_scale=2.0, power_scale=1.3),
        Node("mid"),
        Node("small", speed_scale=0.6, power_scale=0.5),
    ),
    budget_w=45.0,
)


def _job(rodinia, program, uid=None):
    return Job(uid=uid or program, profile=rodinia[program])


@pytest.fixture
def fleet_session():
    return FleetSession(FLEET, seed=5)


class TestFleetSessionLifecycle:
    def test_submit_drain_completes_on_nodes(self, fleet_session, rodinia):
        programs = ["cfd", "dwt2d", "lud", "srad", "hotspot", "leukocyte"]
        for name in programs:
            fleet_session.submit(_job(rodinia, name), 0.0)
        completions, rejections = fleet_session.drain()
        assert rejections == []
        assert {c.job_id for c in completions} == set(programs)
        for record in completions:
            node, _, device = record.kind.partition(":")
            assert node in {"big", "mid", "small"}
            assert device in ("cpu", "gpu")
            assert record.finish_s > record.start_s >= 0.0
            # Completions come back on the shared wall clock, and the
            # facade's clock is the furthest node's wall time.
            assert record.finish_s <= fleet_session.now + 1e-9
        assert fleet_session.idle
        assert fleet_session.queue_depth == 0

    def test_completions_sorted_on_the_wall_clock(
        self, fleet_session, rodinia
    ):
        for name in ["cfd", "dwt2d", "lud", "srad"]:
            fleet_session.submit(_job(rodinia, name), 0.0)
        completions, _ = fleet_session.drain()
        finishes = [c.finish_s for c in completions]
        assert finishes == sorted(finishes)

    def test_placement_spreads_load(self, fleet_session, rodinia):
        programs = ["cfd", "dwt2d", "lud", "srad", "hotspot", "leukocyte"]
        for name in programs:
            fleet_session.submit(_job(rodinia, name), 0.0)
        placed = {fleet_session.node_of(name) for name in programs}
        # Greedy lowest-backlog placement must use more than one node for
        # six jobs on a three-node fleet.
        assert len(placed) > 1

    def test_running_keys_are_node_qualified(self, fleet_session, rodinia):
        fleet_session.submit(_job(rodinia, "cfd"), 0.0)
        fleet_session.submit(_job(rodinia, "lud"), 0.0)
        fleet_session.advance(1.0)
        running = fleet_session.running
        assert running
        for device, job in running.items():
            node = fleet_session.node_of(job.uid)
            assert device in (f"{node}:cpu", f"{node}:gpu")

    def test_one_node_fleet_names_devices_plainly(self, rodinia):
        session = FleetSession(Fleet.single(15.0))
        for name in ["cfd", "dwt2d", "lud", "srad"]:
            session.submit(_job(rodinia, name), 0.0)
        session.advance(1.0)
        assert session.running
        assert set(session.running) <= {"cpu", "gpu"}

    def test_advance_backwards_rejected(self, fleet_session, rodinia):
        fleet_session.submit(_job(rodinia, "cfd"), 0.0)
        fleet_session.advance(5.0)
        with pytest.raises(ValueError, match="cannot advance"):
            fleet_session.advance(1.0)

    def test_wall_start_converts_the_node_clock(self, fleet_session, rodinia):
        for name in ["cfd", "lud", "srad", "hotspot"]:
            fleet_session.submit(_job(rodinia, name), 2.0)
        completions, _ = fleet_session.drain()
        for record in completions:
            # Completion records and wall_start agree on the wall clock.
            assert fleet_session.wall_start(record.job_id) == record.start_s
            assert record.start_s >= 2.0 - 1e-9


class TestFleetCapEvents:
    def test_set_cap_rescales_by_frozen_shares(self, fleet_session):
        shares = [c / FLEET.total_cap_w() for c in FLEET.node_caps()]
        fleet_session.set_cap(30.0)
        assert fleet_session.cap_w == pytest.approx(30.0)
        for session, share in zip(fleet_session.sessions, shares):
            assert session.cap_w == pytest.approx(30.0 * share)

    def test_cap_validation(self, fleet_session):
        with pytest.raises(ValueError, match="positive"):
            fleet_session.set_cap(0.0)

    def test_new_preemptions_hands_out_each_record_once(
        self, fleet_session, rodinia
    ):
        for name in ["cfd", "dwt2d", "lud", "srad", "hotspot", "leukocyte"]:
            fleet_session.submit(_job(rodinia, name), 0.0)
        fleet_session.advance(2.0)
        assert fleet_session.new_preemptions() == []
        index, kind = next(
            (i, kind)
            for i, session in enumerate(fleet_session.sessions)
            for kind in session.running
        )
        node = FLEET.nodes[index]
        evicted = fleet_session.sessions[index].sim.preempt(kind)
        (rec,) = fleet_session.new_preemptions()
        assert rec.job == evicted.uid
        assert rec.from_device == f"{node.name}:{kind.value}"
        # Every node sits at its native image of wall time 2.0.
        assert rec.at_s == pytest.approx(2.0)
        assert fleet_session.new_preemptions() == []
        fleet_session.drain()
        for later in fleet_session.new_preemptions():
            assert later.job != evicted.uid

    def test_infeasible_everywhere_late_rejects_with_node_tag(self, rodinia):
        tiny = Fleet(
            nodes=(Node("a", cap_w=1.0), Node("b", cap_w=1.0)),
        )
        session = FleetSession(tiny)
        job = _job(rodinia, "cfd")
        assert not session.admissible(job)
        session.submit(job, 0.0)
        completions, rejections = session.drain()
        assert completions == []
        assert [r.job_id for r in rejections] == ["cfd"]
        assert rejections[0].message.startswith("[a] ")


class TestTrivialFleetMatchesSingleSession:
    def test_single_node_fleet_is_byte_identical(self, rodinia):
        programs = ["cfd", "dwt2d", "lud"]
        plain = ServiceSession(seed=3)
        fleet = FleetSession(Fleet.single(15.0), seed=3)
        plain.set_cap(15.0)
        for name in programs:
            plain.submit(_job(rodinia, name), 0.0)
            fleet.submit(_job(rodinia, name), 0.0)
        base_done, _ = plain.drain()
        fleet_done, _ = fleet.drain()
        assert len(base_done) == len(fleet_done)
        for b, f in zip(base_done, fleet_done):
            assert f.kind == b.kind
            # repro: noqa REP003 -- byte-identical single-node contract
            assert (b.job_id, b.start_s, b.finish_s, b.setting) == (
                f.job_id, f.start_s, f.finish_s, f.setting
            )


class TestFleetShardConfig:
    def test_build_state_constructs_fleet_session(self):
        from repro.service.shard import ShardConfig, build_state

        config = ShardConfig(fleet=FLEET.to_dict(), method="hcs", seed=1)
        state = build_state(config)
        assert isinstance(state.session, FleetSession)
        assert state.session.fleet == FLEET

    def test_build_state_without_fleet_runs_a_one_node_fleet(self):
        from repro.service.shard import ShardConfig, build_state

        config = ShardConfig(cap_w=12.0)
        state = build_state(config)
        assert isinstance(state.session, FleetSession)
        assert state.session.fleet == Fleet.single(12.0)
        assert state.session.cap_w == 12.0


@contextlib.contextmanager
def _server(**kwargs):
    from repro.service.async_server import serve_async
    from repro.service.client import ServiceClient

    ready: "queue.Queue[tuple[str, int]]" = queue.Queue()
    thread = threading.Thread(
        target=serve_async,
        kwargs={"port": 0, "ready": ready.put, **kwargs},
        daemon=True,
    )
    thread.start()
    host, port = ready.get(timeout=30)
    try:
        yield host, port
    finally:
        if thread.is_alive():
            with contextlib.suppress(OSError):
                with ServiceClient(host, port) as client:
                    client.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()


class TestFleetThroughTheDaemon:
    def test_submit_drain_status_on_a_fleet(self):
        from repro.service.client import ServiceClient

        with _server(fleet=FLEET) as (host, port):
            with ServiceClient(host, port) as client:
                for name in ["lud", "cfd", "srad", "dwt2d"]:
                    accepted = client.submit(name)
                    assert accepted.state == "queued"
                done = client.drain()
                assert len(done.completions) == 4
                nodes_used = {
                    c.kind.partition(":")[0] for c in done.completions
                }
                assert nodes_used <= {"big", "mid", "small"}
                status = client.status()
                assert status.completed == 4
                assert status.cap_w == pytest.approx(FLEET.total_cap_w())

    def test_cap_change_over_the_wire(self):
        from repro.service.client import ServiceClient

        with _server(fleet=FLEET) as (host, port):
            with ServiceClient(host, port) as client:
                client.submit("lud")
                client.set_cap(30.0)
                status = client.status()
                assert status.cap_w == pytest.approx(30.0)
                client.drain()


def _fleet_state(fleet, **config):
    from repro.service.shard import ShardConfig, build_state

    return build_state(ShardConfig(fleet=fleet.to_dict(), seed=2, **config))


def _events(state):
    return [event for _, event in state.store.log.replay(0)]


class TestFleetServiceState:
    TWO = Fleet(
        nodes=(
            Node("Big", speed_scale=2.0, power_scale=1.3),
            Node("small", speed_scale=0.6, power_scale=0.5),
        ),
        budget_w=40.0,
    )

    def test_past_set_cap_reports_and_logs_the_effective_time(self):
        from repro.service import protocol
        from repro.store import events as ev

        state = _fleet_state(self.TWO)

        def call(request):
            line = protocol.encode(request)
            reply = state.handle(protocol.decode_request(line))
            return protocol.decode_response(protocol.encode(reply))

        call(protocol.SubmitRequest(program="lud", uid="a"))
        assert call(protocol.AdvanceRequest(until_s=1.0)).now_s == 1.0
        past = call(protocol.SetCapRequest(cap_w=30.0, at_s=0.0))
        assert past.at_s == 1.0
        future = call(protocol.SetCapRequest(cap_w=35.0, at_s=3.0))
        assert future.at_s == 3.0
        clock = 0.0
        caps = []
        for event in _events(state):
            if isinstance(event, ev.ClockAdvanced):
                clock = event.now_s
            elif isinstance(event, ev.CapChanged):
                caps.append(event.at_s)
                assert event.at_s >= clock
        assert caps == [1.0, 3.0]

    def test_every_logged_device_is_node_qualified_as_spelled(self, rodinia):
        from repro.service import protocol

        state = _fleet_state(self.TWO)
        for i, name in enumerate(["cfd", "dwt2d", "lud", "srad", "hotspot"]):
            state.handle(protocol.SubmitRequest(program=name, uid=f"j{i}"))
        state.handle(protocol.AdvanceRequest(until_s=1.0))
        index, kind = next(
            (i, kind)
            for i, session in enumerate(state.session.sessions)
            for kind in session.running
        )
        state.session.sessions[index].sim.preempt(kind)
        state.handle(protocol.AdvanceRequest(until_s=2.0))
        state.handle(protocol.DrainRequest())
        devices = []
        for event in _events(state):
            for field in ("device", "src", "dst"):
                name = getattr(event, field, None)
                if name is not None:
                    devices.append(name)
                    node = state.session.node_of(event.job_id)
                    assert name in (f"{node}:cpu", f"{node}:gpu")
        assert any(d.startswith("Big:") for d in devices)
        kinds = {type(e).__name__ for e in _events(state)}
        assert {"JobScheduled", "JobPreempted", "JobCompleted"} <= kinds

    def test_cache_hit_rate_is_derived_from_summed_counters(self):
        from repro.service import protocol

        state = _fleet_state(FLEET)
        for i, name in enumerate(["cfd", "lud", "srad", "lud", "cfd", "hotspot"]):
            state.handle(protocol.SubmitRequest(program=name, uid=f"j{i}"))
        state.handle(protocol.DrainRequest())
        metrics = state.handle(protocol.MetricsRequest()).metrics
        hits, misses = metrics["cache_hits"], metrics["cache_misses"]
        assert hits == sum(s.cache.stats.hits for s in state.session.sessions)
        assert 0.0 <= metrics["cache_hit_rate"] <= 1.0
        assert metrics["cache_hit_rate"] == hits / (hits + misses)


class TestPlacementProfilesPerShape:
    SHAPES = [("cfd", 1.0), ("lud", 1.0), ("cfd", 0.5), ("srad", 2.0)]

    @pytest.mark.parametrize("fleet", [Fleet.single(15.0), FLEET])
    def test_a_burst_profiles_each_distinct_shape_once(
        self, fleet, monkeypatch
    ):
        from repro.model import profiler
        from repro.service import fleet as fleet_module
        from repro.service import protocol
        from repro.service import session as session_module

        calls = []

        def counting(table, jobs, **kwargs):
            calls.append(len(jobs))
            return profiler.extend_table(table, jobs, **kwargs)

        monkeypatch.setattr(session_module, "extend_table", counting)
        monkeypatch.setattr(fleet_module, "extend_table", counting)
        state = _fleet_state(fleet, queue_capacity=64)
        k = len(self.SHAPES)
        for i in range(40):
            program, scale = self.SHAPES[i % k]
            reply = state.handle(protocol.SubmitRequest(
                program=program, scale=scale, uid=f"j{i}"
            ))
            assert reply.state == "queued"
        assert len(calls) <= k + 1
        # The next clock movement profiles each node's deferred jobs in
        # one batched extension per node.
        state.handle(protocol.AdvanceRequest(until_s=0.5))
        assert len(calls) <= k + len(fleet)
        assert sum(calls) >= 40


class TestPlacementOncePerSubmission:
    """The server asks ``admissible`` and then ``submit`` for each job;
    the node choice must be computed once between them."""

    @pytest.mark.parametrize(
        "fleet", [Fleet.single(15.0), FLEET], ids=["one-node", "three-node"]
    )
    def test_server_submission_places_once(self, fleet, monkeypatch):
        from repro.service import protocol
        from repro.service.server import ServiceState

        session = FleetSession(fleet, seed=5)
        state = ServiceState(session)
        placed = []
        choose = session._choose_node

        def counting(job):
            placed.append(job.uid)
            return choose(job)

        monkeypatch.setattr(session, "_choose_node", counting)
        uids = [f"j{i}" for i in range(4)]
        for uid, name in zip(uids, ["cfd", "lud", "srad", "cfd"]):
            reply = state.handle(protocol.SubmitRequest(program=name, uid=uid))
            assert isinstance(reply, protocol.SubmitResponse)
        assert placed == uids

    def test_reuse_needs_the_same_job_and_loads(self, rodinia, monkeypatch):
        session = FleetSession(FLEET, seed=5)
        placed = []
        choose = session._choose_node

        def counting(job):
            placed.append(job.uid)
            return choose(job)

        monkeypatch.setattr(session, "_choose_node", counting)
        a, b = _job(rodinia, "cfd", "a"), _job(rodinia, "lud", "b")
        assert session.admissible(a)
        session.submit(b, 0.0)      # another job moves a node's load
        session.submit(a, 0.0)      # so a is placed afresh
        c = _job(rodinia, "srad", "c")
        assert session.admissible(c)
        session.set_cap(30.0)       # a cap change forgets the answer
        session.submit(c, 0.0)
        d = _job(rodinia, "hotspot", "d")
        assert session.admissible(d)
        session.submit(d, 0.0)      # same job, same loads: reused
        assert placed == ["a", "b", "a", "c", "c", "d"]

    def test_a_cap_taking_effect_forgets_the_answer(
        self, rodinia, monkeypatch
    ):
        # A future-dated cap lands inside advance; no load moves, but
        # the node caps the choice read did, so submit places afresh.
        session = FleetSession(FLEET, seed=5)
        placed = []
        choose = session._choose_node

        def counting(job):
            placed.append(job.uid)
            return choose(job)

        monkeypatch.setattr(session, "_choose_node", counting)
        session.set_cap(30.0, at_s=0.5)
        x = _job(rodinia, "cfd", "x")
        caps = [s.cap_w for s in session.sessions]
        assert session.admissible(x)
        assert session.advance(1.0) == ([], [])
        assert [s.cap_w for s in session.sessions] != caps
        session.submit(x, 1.0)
        assert placed == ["x", "x"]
