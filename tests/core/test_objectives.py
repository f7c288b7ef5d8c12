"""Tests for the energy-aware objectives and governor."""

import pytest

from repro.core.freqpolicy import ModelGovernor
from repro.core.hcs import hcs_schedule
from repro.core.objectives import (
    EnergyAwareGovernor,
    Objective,
    score_execution,
)
from repro.core.runtime import CoScheduleRuntime


@pytest.fixture(scope="module")
def runtime(rodinia_jobs):
    return CoScheduleRuntime(rodinia_jobs, cap_w=15.0)


@pytest.fixture(scope="module")
def schedule(runtime):
    return hcs_schedule(runtime.context()).schedule


class TestScoreExecution:
    def test_objectives_disagree_in_units(self, runtime, schedule):
        execution = runtime.execute(schedule)
        makespan = score_execution(execution, Objective.MAKESPAN)
        energy = score_execution(execution, Objective.ENERGY)
        edp = score_execution(execution, Objective.EDP)
        # repro: noqa REP003 -- identity contracts: scores ARE the raw metrics
        assert makespan == execution.makespan_s
        assert energy == execution.energy_j  # repro: noqa REP003 -- identity contract
        assert edp == pytest.approx(makespan * energy)


class TestEnergyAwareGovernor:
    def test_respects_the_cap(self, runtime):
        gov = EnergyAwareGovernor(runtime.predictor, 15.0)
        jobs = {j.uid: j for j in runtime.jobs}
        s = gov(jobs["cfd"], jobs["srad"])
        assert runtime.predictor.pair_power_w("cfd", "srad", s) <= 15.0

    def test_runs_slower_but_cooler_than_performance_governor(
        self, runtime, schedule
    ):
        perf = runtime.execute(schedule, ModelGovernor(runtime.predictor, 15.0))
        eco = runtime.execute(
            schedule, EnergyAwareGovernor(runtime.predictor, 15.0)
        )
        assert eco.makespan_s >= perf.makespan_s
        assert eco.mean_power_w < perf.mean_power_w

    def test_energy_choice_is_minimal_among_feasible(self, runtime):
        gov = EnergyAwareGovernor(runtime.predictor, 15.0)
        jobs = {j.uid: j for j in runtime.jobs}
        s = gov(jobs["dwt2d"], jobs["hotspot"])
        chosen = gov._pair_energy("dwt2d", "hotspot", s)
        for other in runtime.predictor.feasible_pair_settings(
            "dwt2d", "hotspot", 15.0
        ):
            assert chosen <= gov._pair_energy("dwt2d", "hotspot", other) + 1e-9

    def test_solo_jobs_supported(self, runtime, processor):
        gov = EnergyAwareGovernor(runtime.predictor, 15.0)
        jobs = {j.uid: j for j in runtime.jobs}
        s = gov(jobs["dwt2d"], None)
        assert s.gpu_ghz == processor.gpu.domain.fmin

    def test_caching(self, runtime):
        gov = EnergyAwareGovernor(runtime.predictor, 15.0)
        jobs = {j.uid: j for j in runtime.jobs}
        assert gov(jobs["cfd"], None) is gov(jobs["cfd"], None)

    def test_no_jobs_rejected(self, runtime):
        gov = EnergyAwareGovernor(runtime.predictor, 15.0)
        with pytest.raises(ValueError):
            gov(None, None)


class TestEnergyExperiment:
    def test_driver_shape(self):
        from repro.experiments import energy

        result = energy.run()
        h = result.headline
        # The energy-aware governor trades makespan for energy.
        assert h["energy_makespan_s"] > h["performance_makespan_s"]
        assert h["energy_energy_kj"] < h["performance_energy_kj"]
