"""Objective plumbing through the service layer (no sockets).

The daemon's scheduling objective is part of its contract: it appears in
status, gates submissions that pin a different objective, and drives the
per-objective accounting in the metrics scrape.
"""

import pytest

from repro.core.objectives import EnergyAwareGovernor, Objective
from repro.service import protocol
from repro.service.server import ServiceState
from repro.core.fleet import Fleet
from repro.service.fleet import FleetSession
from repro.service.session import ServiceSession


@pytest.fixture
def energy_state():
    return ServiceState(FleetSession(Fleet.single(15.0), objective="energy"))


class TestSessionObjective:
    def test_defaults_to_makespan(self):
        assert ServiceSession().objective is Objective.MAKESPAN

    def test_energy_session_uses_the_energy_governor(self):
        session = ServiceSession(objective="energy")
        assert session.objective is Objective.ENERGY
        assert isinstance(session.governor, EnergyAwareGovernor)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            ServiceSession(objective="latency")

    def test_completions_estimate_energy(self, rodinia):
        from repro.workload.program import Job

        session = ServiceSession(objective="energy")
        session.submit(Job(uid="cfd", profile=rodinia["cfd"]), 0.0)
        (record,), _ = session.drain()
        assert record.energy_est_j == pytest.approx(
            record.power_at_start_w * (record.finish_s - record.start_s)
        )


class TestWireObjective:
    def test_status_reports_the_objective(self, energy_state):
        status = energy_state.handle(protocol.StatusRequest())
        assert status.objective == "energy"

    def test_matching_objective_admitted(self, energy_state):
        response = energy_state.handle(
            protocol.SubmitRequest(program="cfd", objective="energy")
        )
        assert isinstance(response, protocol.SubmitResponse)

    def test_mismatched_objective_rejected(self, energy_state):
        response = energy_state.handle(
            protocol.SubmitRequest(program="cfd", objective="makespan")
        )
        assert isinstance(response, protocol.RejectionResponse)
        assert response.code == "objective_mismatch"
        assert energy_state.metrics.rejected_objective == 1
        # Nothing was admitted or profiled for the rejected submission.
        status = energy_state.handle(protocol.StatusRequest())
        assert status.queue_depth == 0
        assert status.rejected == 1

    def test_unpinned_submission_admitted_anywhere(self, energy_state):
        response = energy_state.handle(protocol.SubmitRequest(program="cfd"))
        assert isinstance(response, protocol.SubmitResponse)

    def test_objective_round_trips_through_the_codec(self):
        line = protocol.encode(
            protocol.SubmitRequest(program="cfd", objective="edp")
        )
        decoded = protocol.decode_request(line)
        assert decoded.objective == "edp"

    def test_metrics_scrape_has_per_objective_totals(self, energy_state):
        energy_state.handle(protocol.SubmitRequest(program="cfd"))
        energy_state.handle(protocol.DrainRequest())
        scrape = energy_state.handle(protocol.MetricsRequest()).metrics
        assert scrape["objective_energy_est_j"] > 0.0
        assert scrape["objective_edp_est_js"] == pytest.approx(
            scrape["objective_makespan_s"] * scrape["objective_energy_est_j"]
        )
        assert scrape["busy_s"] > 0.0
