"""Tests for Step 2 (processor-preference categorization)."""

import pytest

from repro.core.categorize import (
    DEFAULT_THRESHOLD,
    Preference,
    categorize_jobs,
    job_preference,
)


class TestJobPreference:
    def test_table1_preferences(self, predictor, rodinia_jobs):
        """Paper Table I: dwt2d CPU-preferred, lud non-preferred, the other
        six GPU-preferred — evaluated at cap-feasible frequencies."""
        by_name = {j.uid: j for j in rodinia_jobs}
        assert job_preference(predictor, by_name["dwt2d"], 15.0) is Preference.CPU
        for name in ("streamcluster", "cfd", "hotspot", "srad",
                     "leukocyte", "heartwall"):
            assert job_preference(predictor, by_name[name], 15.0) is Preference.GPU

    def test_huge_threshold_makes_everything_non_preferred(
        self, predictor, rodinia_jobs
    ):
        for job in rodinia_jobs:
            assert (
                job_preference(predictor, job, 15.0, threshold=100.0)
                is Preference.NONE
            )

    def test_zero_threshold_leaves_no_non_preferred(self, predictor, rodinia_jobs):
        for job in rodinia_jobs:
            assert (
                job_preference(predictor, job, 15.0, threshold=0.0)
                is not Preference.NONE
            )

    def test_preference_uses_capped_times(self, predictor, rodinia_jobs):
        """lud is non-preferred at max frequency (Table I) but becomes
        GPU-preferred under the default cap, which throttles the CPU much
        harder than the GPU."""
        lud = next(j for j in rodinia_jobs if j.uid == "lud")
        capped = job_preference(predictor, lud, 15.0)
        uncapped = job_preference(predictor, lud, 100.0)
        assert uncapped is Preference.NONE
        assert capped is Preference.GPU


class TestCategorizeJobs:
    def test_partition_is_complete(self, predictor, rodinia_jobs):
        cat = categorize_jobs(predictor, rodinia_jobs, 15.0)
        names = (
            {j.uid for j in cat.cpu_preferred}
            | {j.uid for j in cat.gpu_preferred}
            | {j.uid for j in cat.non_preferred}
        )
        assert names == {j.uid for j in rodinia_jobs}

    def test_of_accessor(self, predictor, rodinia_jobs):
        cat = categorize_jobs(predictor, rodinia_jobs, 15.0)
        assert cat.of(Preference.CPU) == cat.cpu_preferred
        assert cat.of(Preference.GPU) == cat.gpu_preferred
        assert cat.of(Preference.NONE) == cat.non_preferred

    def test_default_threshold_is_paper_value(self):
        assert DEFAULT_THRESHOLD == pytest.approx(0.20)


class TestThresholdValidation:
    """A NaN threshold compares false against every difference, so it
    would silently give every job a preference; negatives mean nothing."""

    @pytest.mark.parametrize("threshold", [float("nan"), -1.0, -1e-9])
    def test_categorize_rejects(self, predictor, rodinia_jobs, threshold):
        with pytest.raises(ValueError, match="threshold"):
            categorize_jobs(predictor, rodinia_jobs, 15.0, threshold=threshold)
        with pytest.raises(ValueError, match="threshold"):
            job_preference(predictor, rodinia_jobs[0], 15.0, threshold=threshold)

    def test_categorize_rejects_even_without_jobs(self, predictor):
        with pytest.raises(ValueError, match="threshold"):
            categorize_jobs(predictor, [], 15.0, threshold=float("nan"))

    @pytest.mark.parametrize("method", ["hcs", "hcs+"])
    @pytest.mark.parametrize("threshold", [float("nan"), -1.0])
    def test_schedule_rejects(self, predictor, rodinia_jobs, method, threshold):
        from repro.core.api import schedule

        with pytest.raises(ValueError, match="threshold"):
            schedule(
                rodinia_jobs, method, cap_w=15.0, predictor=predictor,
                threshold=threshold,
            )

    @pytest.mark.parametrize("threshold", [0.0, DEFAULT_THRESHOLD, 100.0])
    def test_schedule_accepts(self, predictor, rodinia_jobs, threshold):
        from repro.core.api import schedule

        result = schedule(
            rodinia_jobs, "hcs", cap_w=15.0, predictor=predictor,
            threshold=threshold,
        )
        assert len(result.schedule.all_uids()) == len(rodinia_jobs)
