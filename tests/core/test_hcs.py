"""Tests for the HCS/HCS+ facade."""

import pytest

from repro.core.context import SchedulingContext
from repro.core.hcs import hcs_schedule
from repro.core.schedule import predicted_makespan


@pytest.fixture
def ctx(predictor, rodinia_jobs):
    return SchedulingContext(jobs=rodinia_jobs, cap_w=15.0, predictor=predictor)


class TestHcsSchedule:
    def test_schedules_every_job(self, ctx, rodinia_jobs):
        result = hcs_schedule(ctx)
        assert sorted(result.schedule.all_uids()) == sorted(
            j.uid for j in rodinia_jobs
        )

    def test_diagnostics_present(self, ctx, rodinia_jobs):
        result = hcs_schedule(ctx)
        n = len(rodinia_jobs)
        assert len(result.partition.co) + len(result.partition.seq) == n
        assert result.scheduling_time_s > 0.0
        assert result.predicted_makespan_s > 0.0

    def test_predicted_makespan_consistent(self, ctx, predictor):
        result = hcs_schedule(ctx)
        assert result.predicted_makespan_s == pytest.approx(
            predicted_makespan(result.schedule, predictor, result.governor)
        )

    def test_refined_no_worse_than_plain(self, ctx):
        plain = hcs_schedule(ctx)
        refined = hcs_schedule(ctx, refine=True)
        assert refined.predicted_makespan_s <= plain.predicted_makespan_s + 1e-9

    def test_threshold_changes_categorization(self, ctx):
        wide = hcs_schedule(ctx, threshold=100.0)
        assert len(wide.categorized.non_preferred) == len(
            wide.partition.co
        )

    def test_empty_jobs_rejected(self, predictor):
        with pytest.raises(ValueError):
            hcs_schedule(SchedulingContext(jobs=[], cap_w=15.0, predictor=predictor))

    def test_seq_jobs_land_in_solo_tail(self, processor, rodinia):
        """A workload engineered so the theorem rejects all co-runs must
        come out fully serialized."""
        from repro.model.characterize import characterize_space
        from repro.model.predictor import CoRunPredictor
        from repro.model.profiler import profile_workload
        from repro.workload.program import Job

        heavy = Job("heavy", rodinia["dwt2d"])
        tiny = Job("tiny", rodinia["streamcluster"].scaled(0.005, name="tiny"))
        table = profile_workload(processor, [heavy, tiny])
        predictor = CoRunPredictor(processor, table, characterize_space(processor))
        result = hcs_schedule(
            SchedulingContext(jobs=[heavy, tiny], cap_w=15.0, predictor=predictor)
        )
        assert len(result.schedule.solo_tail) == 2
        assert not result.schedule.cpu_queue and not result.schedule.gpu_queue
