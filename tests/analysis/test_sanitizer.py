"""The sanitizer tripwire: rigged governors must be caught everywhere.

The acceptance scenario of the analysis subsystem: a governor that ignores
the power cap (always answering with the chip's maximum frequencies) must
raise :class:`~repro.errors.ScheduleInvariantError` naming the power-cap
invariant from **every** registry scheduling method, from the refinement
pass, and from the online service path — whenever the sanitizer is armed
via ``REPRO_SANITIZE=1`` or ``ctx.with_sanitizer()``.
"""

from __future__ import annotations

import pytest

from repro.analysis.invariants import (
    INVARIANT_POWER_CAP,
    SANITIZE_ENV,
    env_sanitizer_enabled,
    sanitizer_enabled,
)
from repro.core.api import schedule, scheduler_names
from repro.core.context import SchedulingContext
from repro.core.freqpolicy import ModelGovernor
from repro.core.refine import refine_schedule
from repro.errors import ScheduleInvariantError

CAP_W = 15.0


class CapIgnoringGovernor(ModelGovernor):
    """Max frequencies, always — exactly what the sanitizer must catch."""

    def _choose(self, cpu_job, gpu_job):
        return self.predictor.processor.max_setting


def _power_cap_named(exc_info) -> bool:
    return INVARIANT_POWER_CAP in {
        v.invariant for v in exc_info.value.violations
    }


@pytest.fixture
def rigged_governor(predictor):
    return CapIgnoringGovernor(predictor, CAP_W)


class TestRegistrySanitizer:
    @pytest.mark.parametrize("method", scheduler_names())
    def test_every_method_is_caught(
        self, monkeypatch, predictor, rodinia_jobs, rigged_governor, method
    ):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        with pytest.raises(ScheduleInvariantError) as exc_info:
            schedule(
                rodinia_jobs[:4],
                method,
                cap_w=CAP_W,
                predictor=predictor,
                governor=rigged_governor,
                seed=3,
            )
        assert _power_cap_named(exc_info)
        assert exc_info.value.where is not None

    def test_disarmed_sanitizer_trusts_the_governor(
        self, monkeypatch, predictor, rodinia_jobs, rigged_governor
    ):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        result = schedule(
            rodinia_jobs[:4],
            "hcs",
            cap_w=CAP_W,
            predictor=predictor,
            governor=rigged_governor,
        )
        assert result.schedule.n_jobs == 4

    def test_honest_governor_passes_under_sanitizer(
        self, monkeypatch, predictor, rodinia_jobs
    ):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        result = schedule(
            rodinia_jobs[:4], "hcs", cap_w=CAP_W, predictor=predictor
        )
        assert result.schedule.n_jobs == 4


class TestContextFlag:
    def test_with_sanitizer_arms_without_env(
        self, monkeypatch, predictor, rodinia_jobs, rigged_governor
    ):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        ctx = SchedulingContext.build(
            rodinia_jobs[:4],
            cap_w=CAP_W,
            predictor=predictor,
            governor=rigged_governor,
        ).with_sanitizer()
        assert ctx.sanitizing
        from repro.core.hcs import hcs_schedule

        base = hcs_schedule(ctx.with_sanitizer(False)).schedule
        with pytest.raises(ScheduleInvariantError) as exc_info:
            refine_schedule(base, ctx.with_seed(1))
        assert _power_cap_named(exc_info)
        assert exc_info.value.where == "refine"

    def test_sanitizer_enabled_resolution(self, monkeypatch, predictor, rodinia_jobs):
        ctx = SchedulingContext.build(
            rodinia_jobs[:2], cap_w=CAP_W, predictor=predictor
        )
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        assert not env_sanitizer_enabled()
        assert not sanitizer_enabled(ctx)
        assert sanitizer_enabled(ctx.with_sanitizer())
        for off in ("0", "false", "no", "off", ""):
            monkeypatch.setenv(SANITIZE_ENV, off)
            assert not env_sanitizer_enabled()
        monkeypatch.setenv(SANITIZE_ENV, "1")
        assert env_sanitizer_enabled()
        assert sanitizer_enabled(ctx)


class TestServiceSanitizer:
    @pytest.fixture(scope="class")
    def session_factory(self):
        from repro.service.session import ServiceSession

        def make(**kwargs):
            return ServiceSession(cap_w=CAP_W, **kwargs)

        return make

    def _rig(self, session):
        session.scheduler.governor_factory = (
            lambda predictor, cap_w, objective: CapIgnoringGovernor(
                predictor, cap_w
            )
        )

    def test_batch_scheduling_is_verified(
        self, monkeypatch, session_factory, rodinia_jobs
    ):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        session = session_factory(sanitize=True)
        for job in rodinia_jobs[:3]:
            session.submit(job)
        self._rig(session)
        with pytest.raises(ScheduleInvariantError) as exc_info:
            session.drain()
        assert _power_cap_named(exc_info)
        assert exc_info.value.where == "service:batch"

    def test_session_completion_reverifies_memoized_plans(
        self, monkeypatch, session_factory, rodinia_jobs
    ):
        # Plans memoized while the sanitizer was off are re-verified when
        # the session completes with it on — catching a governor that went
        # rogue mid-run.
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        session = session_factory()
        # One CPU-leaning and one GPU-leaning job.  After the advance both
        # candidate sets have been planned and memoized, so draining needs
        # no fresh batch — only the completion-time re-verification runs.
        for job in (rodinia_jobs[2], rodinia_jobs[0]):  # dwt2d, streamcluster
            session.submit(job)
        session.advance(0.5)
        assert session._schedule_memo
        self._rig(session)
        monkeypatch.setenv(SANITIZE_ENV, "1")
        with pytest.raises(ScheduleInvariantError) as exc_info:
            session.drain()
        assert _power_cap_named(exc_info)
        assert exc_info.value.where == "service:session"

    def test_clean_session_drains_under_sanitizer(
        self, monkeypatch, session_factory, rodinia_jobs
    ):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        session = session_factory()
        for job in rodinia_jobs[:3]:
            session.submit(job)
        completions, rejections = session.drain()
        assert len(completions) == 3
        assert rejections == []
