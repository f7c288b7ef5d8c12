"""Unit tests for the fleet model: nodes, budgets, and the scaled predictor."""

from __future__ import annotations

import math

import pytest

from repro.core.fleet import Fleet, Node, NodePredictor, node_predictor
from repro.errors import InfeasibleCapError
from repro.hardware.device import DeviceKind


class TestNode:
    def test_defaults_are_trivial(self):
        node = Node("n0")
        assert node.trivial
        assert node.cap_w is None

    def test_scaled_node_is_not_trivial(self):
        assert not Node("n0", speed_scale=1.5).trivial
        assert not Node("n0", power_scale=0.5).trivial

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "n0", "speed_scale": 0.0},
            {"name": "n0", "speed_scale": -1.0},
            {"name": "n0", "power_scale": 0.0},
            {"name": "n0", "cap_w": 0.0},
            {"name": "n0", "speed_scale": math.nan},
            {"name": "n0", "speed_scale": math.inf},
            {"name": "n0", "power_scale": math.nan},
            {"name": "n0", "power_scale": math.inf},
            {"name": "n0", "cap_w": math.nan},
            {"name": "n0", "cap_w": math.inf},
        ],
    )
    def test_invalid_nodes_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Node(**kwargs)

    def test_dict_round_trip(self):
        node = Node("big", speed_scale=1.5, power_scale=1.2, cap_w=20.0)
        assert Node.from_dict(node.to_dict()) == node


class TestFleet:
    def test_single_is_trivial_single(self):
        fleet = Fleet.single(15.0)
        assert fleet.is_single and fleet.is_trivial_single
        assert fleet.node_caps() == (15.0,)
        assert fleet.total_cap_w() == 15.0

    def test_uniform_shared_budget(self):
        fleet = Fleet.uniform(4, budget_w=40.0)
        assert len(fleet) == 4
        assert fleet.node_caps() == (10.0, 10.0, 10.0, 10.0)
        assert fleet.total_cap_w() == 40.0

    def test_budget_shares_follow_power_rating(self):
        fleet = Fleet(
            nodes=(
                Node("hot", power_scale=2.0),
                Node("cool", power_scale=1.0),
            ),
            budget_w=30.0,
        )
        assert fleet.node_caps() == (20.0, 10.0)

    def test_explicit_caps_kept_verbatim_under_budget(self):
        fleet = Fleet(
            nodes=(Node("fixed", cap_w=8.0), Node("flex")),
            budget_w=20.0,
        )
        assert fleet.node_caps() == (8.0, 12.0)
        assert fleet.cap_of("flex") == 12.0

    def test_capless_node_without_budget_rejected(self):
        with pytest.raises(ValueError, match="budget_w"):
            Fleet(nodes=(Node("n0"),))

    def test_non_finite_budget_rejected(self):
        with pytest.raises(ValueError, match="budget_w"):
            Fleet(nodes=(Node("n0"),), budget_w=math.nan)

    def test_exhausted_budget_rejected(self):
        with pytest.raises(ValueError, match="exhaust"):
            Fleet(
                nodes=(Node("fixed", cap_w=20.0), Node("flex")),
                budget_w=20.0,
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Fleet(nodes=(Node("n", cap_w=5.0), Node("n", cap_w=5.0)))

    def test_unknown_node_lookups_raise(self):
        fleet = Fleet.single(15.0)
        with pytest.raises(KeyError):
            fleet.node("ghost")
        with pytest.raises(KeyError):
            fleet.index("ghost")

    def test_dict_round_trip(self):
        fleet = Fleet(
            nodes=(Node("a", speed_scale=2.0), Node("b", cap_w=9.0)),
            budget_w=25.0,
        )
        assert Fleet.from_dict(fleet.to_dict()) == fleet

    def test_parse_descriptors(self):
        fleet = Fleet.parse("big:2.0:1.3,small:0.6:0.5,edge:1:1:8", budget_w=40.0)
        assert [n.name for n in fleet.nodes] == ["big", "small", "edge"]
        assert fleet.node("big").speed_scale == 2.0
        assert fleet.node("edge").cap_w == 8.0
        assert fleet.budget_w == 40.0

    def test_parse_bare_count(self):
        fleet = Fleet.parse("3", budget_w=30.0)
        assert len(fleet) == 3
        assert all(n.trivial for n in fleet.nodes)

    def test_parse_rejects_malformed_descriptor(self):
        with pytest.raises(ValueError, match="node spec"):
            Fleet.parse("a:1:2:3:4:5", budget_w=10.0)


class TestNodePredictor:
    @pytest.fixture(scope="class")
    def node(self):
        return Node("big", speed_scale=2.0, power_scale=1.5)

    @pytest.fixture(scope="class")
    def scaled(self, predictor, node):
        return node_predictor(predictor, node)

    def test_trivial_node_returns_base_unchanged(self, predictor):
        assert node_predictor(predictor, Node("n0")) is predictor
        assert node_predictor(predictor, Node("n0", cap_w=9.0)) is predictor

    def test_times_divide_by_speed(self, predictor, scaled, rodinia_jobs):
        uid = rodinia_jobs[0].uid
        f = predictor.processor.cpu.domain.fmax
        assert scaled.solo_time(uid, DeviceKind.CPU, f) == pytest.approx(
            predictor.solo_time(uid, DeviceKind.CPU, f) / 2.0
        )

    def test_powers_multiply_by_rating(self, predictor, scaled, rodinia_jobs):
        uid = rodinia_jobs[0].uid
        f = predictor.processor.cpu.domain.fmax
        assert scaled.solo_power_w(uid, DeviceKind.CPU, f) == pytest.approx(
            predictor.solo_power_w(uid, DeviceKind.CPU, f) * 1.5
        )

    def test_degradations_do_not_scale(self, predictor, scaled, rodinia_jobs):
        cpu_uid, gpu_uid = rodinia_jobs[0].uid, rodinia_jobs[1].uid
        setting = next(iter(predictor.processor.settings()))
        assert scaled.degradations(cpu_uid, gpu_uid, setting) == (
            predictor.degradations(cpu_uid, gpu_uid, setting)
        )

    def test_feasibility_shrinks_with_power_rating(
        self, predictor, scaled, rodinia_jobs
    ):
        uid = rodinia_jobs[0].uid
        cap = 15.0
        base_levels = predictor.feasible_solo_levels(uid, DeviceKind.GPU, cap)
        hot_levels = scaled.feasible_solo_levels(uid, DeviceKind.GPU, cap)
        assert set(hot_levels) <= set(base_levels)

    def test_best_solo_raises_on_impossible_cap(self, scaled, rodinia_jobs):
        with pytest.raises(InfeasibleCapError):
            scaled.best_solo(rodinia_jobs[0].uid, DeviceKind.GPU, 0.5)

    def test_wrapper_exposes_node_identity(self, predictor, node):
        wrapped = node_predictor(predictor, node)
        assert isinstance(wrapped, NodePredictor)
        assert wrapped.node is node
        assert wrapped.processor is predictor.processor
