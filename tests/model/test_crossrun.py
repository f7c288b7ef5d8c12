"""Tests for cross-run (input-scaling) profile estimation."""

import pytest

from repro.hardware.device import DeviceKind
from repro.model.crossrun import (
    crossrun_errors,
    estimate_scaled_profiles,
    merge_tables,
)
from repro.model.profiler import profile_workload
from repro.workload.program import Job, make_jobs
from repro.workload.rodinia import rodinia_programs


@pytest.fixture(scope="module")
def scaled_instances():
    programs = rodinia_programs()
    jobs = []
    for prog in programs[:4]:
        jobs.append(
            (Job(f"{prog.name}#s", prog.scaled(0.85, name=prog.name)),
             prog.name, 0.85)
        )
    return jobs


class TestEstimateScaledProfiles:
    def test_time_scaling_is_exact_for_scaled_inputs(
        self, processor, table, scaled_instances
    ):
        estimated = estimate_scaled_profiles(table, scaled_instances)
        exact = profile_workload(processor, [j for j, _, _ in scaled_instances])
        errors = crossrun_errors(exact, estimated)
        assert errors["time_mean_error"] < 1e-9
        assert errors["demand_mean_error"] < 1e-9

    def test_demand_is_input_invariant(self, table, scaled_instances):
        estimated = estimate_scaled_profiles(table, scaled_instances)
        job, base_uid, _ = scaled_instances[0]
        assert estimated.demand_gbps(job.uid, DeviceKind.GPU, 1.25) == (
            table.demand_gbps(base_uid, DeviceKind.GPU, 1.25)
        )

    def test_bad_scale_rejected(self, table, scaled_instances):
        job, base_uid, _ = scaled_instances[0]
        with pytest.raises(ValueError):
            estimate_scaled_profiles(table, [(job, base_uid, 0.0)])

    def test_duplicate_instance_rejected(self, table, scaled_instances):
        job, base_uid, scale = scaled_instances[0]
        with pytest.raises(ValueError):
            estimate_scaled_profiles(
                table, [(job, base_uid, scale), (job, base_uid, scale)]
            )

    def test_unknown_base_rejected(self, table, scaled_instances):
        job, _, scale = scaled_instances[0]
        with pytest.raises(KeyError):
            estimate_scaled_profiles(table, [(job, "nope", scale)])


class TestMergeTables:
    def test_merged_table_serves_both_sides(
        self, processor, table, scaled_instances
    ):
        estimated = estimate_scaled_profiles(table, scaled_instances)
        merged = merge_tables(table, estimated)
        assert set(merged.uids) == set(table.uids) | {
            j.uid for j, _, _ in scaled_instances
        }
        job = scaled_instances[0][0]
        assert merged.time_s(job.uid, DeviceKind.CPU, 3.6) > 0
        assert merged.time_s("lud", DeviceKind.CPU, 3.6) > 0

    def test_overlapping_uids_rejected(self, table):
        with pytest.raises(ValueError):
            merge_tables(table, table)

    def test_sixteen_job_study_without_reprofiling(self, processor, table):
        """Cross-run estimation supports the Figure 11 workload with only
        the eight base profiles: predictor and HCS run unmodified."""
        from repro.core.context import SchedulingContext
        from repro.core.hcs import hcs_schedule
        from repro.model.predictor import CoRunPredictor
        from repro.model.characterize import characterize_space

        programs = rodinia_programs()
        second = [
            (Job(f"{p.name}#1", p.scaled(0.85, name=p.name)), p.name, 0.85)
            for p in programs
        ]
        first = make_jobs(programs)
        # Rename base jobs to instance-style uids via a fresh base table.
        base_table = profile_workload(processor, first)
        merged = merge_tables(
            base_table, estimate_scaled_profiles(base_table, second)
        )
        predictor = CoRunPredictor(
            processor, merged, characterize_space(processor)
        )
        all_jobs = list(first) + [j for j, _, _ in second]
        result = hcs_schedule(
            SchedulingContext(jobs=all_jobs, cap_w=15.0, predictor=predictor)
        )
        assert result.schedule.n_jobs == 16
