"""Tests for HCS+ local refinement."""

import pytest

from repro.core.context import SchedulingContext
from repro.core.freqpolicy import ModelGovernor
from repro.core.hcs import hcs_schedule
from repro.core.refine import refine_schedule
from repro.core.schedule import predicted_makespan


def _ctx(predictor, jobs, governor=None, seed=None):
    return SchedulingContext(
        jobs=jobs, cap_w=15.0, predictor=predictor, governor=governor, seed=seed
    )


@pytest.fixture
def base(predictor, rodinia_jobs):
    return hcs_schedule(_ctx(predictor, rodinia_jobs))


@pytest.fixture
def ctx(predictor, rodinia_jobs, base):
    """Scalar sampling passes under the HCS governor."""
    return _ctx(predictor, rodinia_jobs, base.governor)


class TestRefineSchedule:
    def test_same_job_set(self, predictor, base, ctx):
        refined = refine_schedule(base.schedule, ctx)
        assert sorted(refined.all_uids()) == sorted(base.schedule.all_uids())

    def test_never_worsens_predicted_makespan(self, predictor, base, ctx):
        before = predicted_makespan(base.schedule, predictor, base.governor)
        refined = refine_schedule(base.schedule, ctx)
        after = predicted_makespan(refined, predictor, base.governor)
        assert after <= before + 1e-9

    def test_solo_tail_untouched(self, predictor, base, ctx):
        refined = refine_schedule(base.schedule, ctx)
        assert refined.solo_tail == base.schedule.solo_tail

    def test_deterministic_under_seed(self, predictor, base, ctx):
        a = refine_schedule(base.schedule, ctx.with_seed(3))
        b = refine_schedule(base.schedule, ctx.with_seed(3))
        assert a == b

    def test_sample_budget_respected(self, predictor, base, ctx):
        # n_samples=0 leaves only the adjacent pass; must still be valid.
        refined = refine_schedule(base.schedule, ctx, n_samples=0)
        assert sorted(refined.all_uids()) == sorted(base.schedule.all_uids())

    def test_improves_a_deliberately_bad_order(self, predictor, rodinia_jobs):
        """Scrambling the queues of a good schedule must give refinement
        something to recover."""
        base = hcs_schedule(_ctx(predictor, rodinia_jobs))
        governor = ModelGovernor(predictor, 15.0)
        scrambled = base.schedule.with_queues(
            tuple(reversed(base.schedule.cpu_queue))
            + tuple(base.schedule.gpu_queue[:2]),
            tuple(base.schedule.gpu_queue[2:]),
        )
        before = predicted_makespan(scrambled, predictor, governor)
        refined = refine_schedule(
            scrambled, _ctx(predictor, rodinia_jobs, governor, seed=1)
        )
        after = predicted_makespan(refined, predictor, governor)
        assert after < before
