"""In-process tests of the daemon's scheduling session (no sockets)."""

import pytest

from repro.hardware.calibration import DEFAULT_POWER_CAP_W
from repro.workload.program import Job
from repro.service.session import ServiceSession

_TOL = 1e-6


@pytest.fixture
def session():
    return ServiceSession()


def _job(rodinia, program, uid=None):
    return Job(uid=uid or program, profile=rodinia[program])


class TestSubmitAndRun:
    def test_submit_drain_completes_everything(self, session, rodinia):
        session.submit(_job(rodinia, "cfd"), 0.0)
        session.submit(_job(rodinia, "dwt2d"), 0.0)
        completions, rejections = session.drain()
        assert rejections == []
        assert {c.job_id for c in completions} == {"cfd", "dwt2d"}
        for record in completions:
            assert record.arrival_s == 0.0
            assert record.finish_s > record.start_s >= 0.0
            assert record.cap_at_start_w == DEFAULT_POWER_CAP_W
            assert record.power_at_start_w <= record.cap_at_start_w + _TOL
            assert record.turnaround_s == pytest.approx(record.finish_s)
        assert session.idle
        assert session.queue_depth == 0

    def test_completions_carry_program_and_device(self, session, rodinia):
        session.submit(_job(rodinia, "lud", uid="lud#7"), 0.0)
        (record,), _ = session.drain()
        assert record.job_id == "lud#7"
        assert record.program == "lud"
        assert record.kind in ("cpu", "gpu")

    def test_past_arrival_clamped_to_now(self, session, rodinia):
        session.submit(_job(rodinia, "cfd"), 0.0)
        session.advance(5.0)
        arrival = session.submit(_job(rodinia, "srad"), 1.0)
        assert arrival == pytest.approx(session.now)

    def test_duplicate_uid_rejected(self, session, rodinia):
        session.submit(_job(rodinia, "cfd"), 0.0)
        with pytest.raises(ValueError, match="unique"):
            session.submit(_job(rodinia, "cfd"), 1.0)

    def test_advance_backwards_rejected(self, session, rodinia):
        session.submit(_job(rodinia, "cfd"), 0.0)
        session.advance(5.0)
        with pytest.raises(ValueError, match="clock"):
            session.advance(1.0)

    def test_repeat_submissions_reuse_profiles(self, session, rodinia):
        session.submit(_job(rodinia, "cfd", uid="cfd#1"), 0.0)
        misses_after_first = session.cache.snapshot()["cache_misses"]
        session.submit(_job(rodinia, "cfd", uid="cfd#2"), 0.0)
        # Same program content, fresh uid: the solo-sweep key is content
        # hashed, so the second profiling pass is a pure cache hit.
        assert session.cache.snapshot()["cache_misses"] == misses_after_first


class TestCapEvents:
    def test_immediate_cap_change(self, session, rodinia):
        session.submit(_job(rodinia, "cfd"), 0.0)
        at = session.set_cap(12.0)
        assert at == pytest.approx(session.now)
        assert session.cap_w == 12.0
        assert session.policy.scheduler.cap_w == 12.0

    def test_cap_validation(self, session):
        with pytest.raises(ValueError, match="positive"):
            session.set_cap(0.0)

    @pytest.mark.parametrize("cap_w", [float("nan"), float("inf")])
    def test_non_finite_cap_rejected(self, session, cap_w):
        with pytest.raises(ValueError, match="finite"):
            session.set_cap(cap_w)
        with pytest.raises(ValueError, match="finite"):
            session.set_cap(cap_w, at_s=10.0)
        assert session.cap_w == DEFAULT_POWER_CAP_W

    def test_future_cap_applies_at_its_timestamp(self, session, rodinia):
        session.submit(_job(rodinia, "cfd"), 0.0)
        session.submit(_job(rodinia, "dwt2d"), 0.0)
        session.submit(_job(rodinia, "srad"), 30.0)
        session.submit(_job(rodinia, "lud"), 30.0)
        at = session.set_cap(12.0, at_s=10.0)
        assert at == 10.0
        assert session.cap_w == DEFAULT_POWER_CAP_W  # not yet in force
        completions, rejections = session.drain()
        assert rejections == []
        assert session.cap_w == 12.0
        assert {c.job_id for c in completions} == {"cfd", "dwt2d", "srad", "lud"}
        for record in completions:
            expected = DEFAULT_POWER_CAP_W if record.start_s < 10.0 else 12.0
            assert record.cap_at_start_w == expected
            assert record.power_at_start_w <= record.cap_at_start_w + _TOL
        starts = {c.job_id: c.start_s for c in completions}
        assert min(starts.values()) == 0.0  # something ran under the old cap
        assert starts["srad"] >= 30.0 and starts["lud"] >= 30.0  # new cap

    def test_unmeetable_cap_clamps_running_pair(self, session, rodinia):
        session.submit(_job(rodinia, "cfd"), 0.0)
        session.submit(_job(rodinia, "dwt2d"), 0.0)
        session.advance(1.0)
        running = {job.uid for job in session.running.values()}
        assert running  # HCS may pair or serialize; work is in flight
        session.set_cap(1.0)  # nothing can hold 1 W, even at the floor
        _, early_rejections = session.advance(2.0)
        assert session.cap_violations >= 1
        setting = session.sim.current_setting
        proc = session.processor
        assert setting.cpu_ghz == proc.cpu.domain.fmin
        assert setting.gpu_ghz == proc.gpu.domain.fmin
        # In-flight work is never killed: it still runs to completion;
        # anything not yet started is withdrawn with a structured rejection.
        completions, rejections = session.drain()
        completed = {c.job_id for c in completions}
        rejected = {r.job_id for r in early_rejections + rejections}
        assert running <= completed
        assert completed | rejected == {"cfd", "dwt2d"}

    def test_cap_drop_late_rejects_stranded_queue(self, session, rodinia):
        session.submit(_job(rodinia, "cfd"), 0.0)
        session.submit(_job(rodinia, "dwt2d"), 0.0)
        session.submit(_job(rodinia, "srad"), 0.0)
        session.advance(1.0)  # two started, srad still queued
        assert len(session.running) == 2
        session.set_cap(1.0)
        completions, rejections = session.drain()
        assert {c.job_id for c in completions} == {"cfd", "dwt2d"}
        assert [r.job_id for r in rejections] == ["srad"]
        assert rejections[0].code == "infeasible_cap"
        assert rejections[0].cap_w == 1.0
        assert session.idle

    def test_infeasible_submission_reported_not_raised(self, rodinia):
        # Admission lives on the fleet session that wraps this engine.
        from repro.core.fleet import Fleet
        from repro.service.fleet import FleetSession

        session = FleetSession(Fleet.single(15.0))
        session.set_cap(1.0)
        assert not session.admissible(_job(rodinia, "cfd"))
