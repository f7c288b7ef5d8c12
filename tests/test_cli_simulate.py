"""``repro simulate`` driven in-process: arrivals and fixed modes, and the
infeasible-cap exit."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.workload.rodinia import rodinia_programs

ALL_PROGRAMS = {program.name for program in rodinia_programs()}


def _simulate_json(capsys, *args: str) -> dict:
    assert main(["simulate", *args, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("objective", ["makespan", "energy"])
@pytest.mark.parametrize("policy", ["hcs", "fifo"])
def test_arrivals_mode_completes_every_job(capsys, policy, objective):
    record = _simulate_json(
        capsys,
        "--mode", "arrivals",
        "--policy", policy,
        "--objective", objective,
    )
    assert record["objective"] == objective
    assert {c["job"] for c in record["completions"]} == ALL_PROGRAMS
    arrivals = sorted(record["arrivals"].values())
    assert arrivals == [10.0 * i for i in range(len(ALL_PROGRAMS))]


def test_fixed_mode_completes_every_job(capsys):
    record = _simulate_json(capsys, "--mode", "fixed")
    assert record["objective"] == "makespan"
    assert {c["job"] for c in record["completions"]} == ALL_PROGRAMS
    assert set(record["arrivals"].values()) == {0.0}


def test_infeasible_cap_exits_2(capsys):
    assert main(["simulate", "--cap-w", "1"]) == 2
    assert "infeasible power cap" in capsys.readouterr().err
