"""Tests for the energy-aware objectives and governor."""

import pytest

from repro.core.feasibility import pair_energy_j
from repro.core.freqpolicy import ModelGovernor
from repro.core.hcs import hcs_schedule
from repro.core.objectives import EnergyAwareGovernor
from repro.objective import Objective
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
        makespan = execution.score(Objective.MAKESPAN)
        energy = execution.score(Objective.ENERGY)
        edp = execution.score(Objective.EDP)
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
        chosen = pair_energy_j(runtime.predictor, "dwt2d", "hotspot", s)
        for other in runtime.predictor.feasible_pair_settings(
            "dwt2d", "hotspot", 15.0
        ):
            assert chosen <= pair_energy_j(
                runtime.predictor, "dwt2d", "hotspot", other
            ) + 1e-9

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


_ENERGY_WEIGHTED = (Objective.ENERGY, Objective.EDP, Objective.MAKESPAN_ENERGY)


@pytest.fixture(scope="module")
def hcs_execution(runtime, schedule):
    return runtime.execute(schedule)


@pytest.mark.parametrize("objective", list(Objective))
class TestOneObjectiveFormula:
    """Every layer's score equals ``Objective.score`` on the same inputs,
    bit for bit (no tolerance)."""

    def test_predicted_metrics(self, runtime, schedule, objective):
        m = runtime.context().evaluator.metrics(schedule)
        expected = objective.score(m.makespan_s, m.energy_j, m.flow_s)
        # repro: noqa REP003 -- bit-identity contract with Objective.score
        assert m.score(objective) == expected
        assert m.score(objective.value) == expected  # repro: noqa REP003 -- bit identity

    def test_execution_result(self, hcs_execution, objective):
        e = hcs_execution
        expected = objective.score(e.makespan_s, e.energy_j, e.flow_s)
        # repro: noqa REP003 -- bit-identity contract with Objective.score
        assert e.score(objective) == expected
        assert e.score(objective.value) == expected  # repro: noqa REP003 -- bit identity
        relabelled = e.with_objective(objective)
        assert relabelled.score() == expected  # repro: noqa REP003 -- bit identity

    def test_one_node_fleet(self, hcs_execution, runtime, schedule, objective):
        from repro.core.fleetsched import aggregate_score
        from repro.engine.fleetsim import FleetExecutionResult, NodeExecution

        fleet = FleetExecutionResult(
            entries=(NodeExecution("node0", 1.5, 1.3, hcs_execution),),
            objective=objective.value,
        )
        expected = objective.score(fleet.makespan_s, fleet.energy_j, fleet.flow_s)
        # repro: noqa REP003 -- bit-identity contract with Objective.score
        assert fleet.score() == expected
        assert fleet.score(objective) == expected  # repro: noqa REP003 -- bit identity

        m = runtime.context().evaluator.metrics(schedule)
        aggregate = aggregate_score(objective, [m])
        # repro: noqa REP003 -- bit-identity contract with Objective.score
        assert aggregate[3] == objective.score(m.makespan_s, m.energy_j, m.flow_s)

    def test_population_lane(self, runtime, objective):
        import numpy as np

        from repro.perf import population as popkit
        from repro.util.rng import default_rng

        ctx = runtime.context(objective=objective)
        ev = ctx.evaluator
        jobs = list(ctx.jobs)
        placement, priority = popkit.random_population(default_rng(3), 6, len(jobs))
        job_index = np.array([ev.tensor.index[j.uid] for j in jobs], dtype=np.int64)
        Qc, len_c, Qg, len_g = popkit.decode_queues(placement, priority, job_index)
        scores, mk, en, fl, bad = ev.score_population(Qc, len_c, Qg, len_g)
        assert not bad.any()
        for k in range(len(scores)):
            lane = objective.score(float(mk[k]), float(en[k]), float(fl[k]))
            # repro: noqa REP003 -- bit-identity contract with Objective.score
            assert float(scores[k]) == lane


@pytest.mark.parametrize("objective", _ENERGY_WEIGHTED)
def test_governor_costs_match_pair_tables(runtime, objective):
    """The scalar governor's pair/solo costs equal ``Objective.score`` and
    the tensor governor cost its :class:`PairTables` ranks by."""
    from repro.hardware.device import DeviceKind
    from repro.perf.tensor import PairTables

    tables, tensor = PairTables.serving(runtime.context(objective=objective).governor)
    gov = EnergyAwareGovernor(runtime.predictor, 15.0, objective)
    interference = tables.interference[0]
    uids = [j.uid for j in runtime.jobs]
    for c in uids:
        for g in uids:
            i, j = tensor.index[c], tensor.index[g]
            if c == g or not tables.pair_valid[i, j]:
                continue
            s = tables.settings[tables.pair_sidx[i, j]]
            t_c, t_g = runtime.predictor.corun_times(c, g, s)
            cost = gov._pair_cost(c, g, s)
            energy = pair_energy_j(runtime.predictor, c, g, s)
            expected = objective.score(max(t_c, t_g), energy)
            # repro: noqa REP003 -- bit-identity contract with Objective.score
            assert cost == expected
            assert cost == float(interference[i, j])  # repro: noqa REP003 -- bit identity
    for uid in uids:
        i = tensor.index[uid]
        for kind in DeviceKind:
            if not tables.solo_valid[kind][i]:
                continue
            f = tables.levels[kind][tables.solo_idx[kind][i]]
            t, power = tables.solo_cell(i, kind)
            energy = power * t
            # repro: noqa REP003 -- bit-identity contract with Objective.score
            assert gov._solo_cost(uid, kind, f) == objective.score(t, energy)


@pytest.mark.parametrize("objective", (Objective.MAKESPAN, Objective.FLOW_TIME))
def test_energy_governor_refuses_time_objectives(runtime, objective):
    with pytest.raises(ValueError, match="EnergyAwareGovernor"):
        EnergyAwareGovernor(runtime.predictor, 15.0, objective)
