"""``--method brute`` on the command line: the job-count limit is a usage
error, reported before any model is built."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.bruteforce import MAX_BRUTE_FORCE_JOBS

FIVE = "streamcluster,cfd,dwt2d,hotspot,srad"


@pytest.fixture
def no_model(monkeypatch):
    """Fail the test if the CLI starts profiling the workload."""

    def refuse(*args, **kwargs):
        raise AssertionError("the model was built")

    monkeypatch.setattr("repro.core.context.build_predictor", refuse)


@pytest.mark.parametrize("subcommand", ["schedule", "simulate"])
def test_too_many_jobs_exits_2_before_the_model(capsys, no_model, subcommand):
    # The default job set is all eight calibrated programs.
    assert main([subcommand, "--method", "brute"]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert len(err.splitlines()) == 1
    assert f"at most {MAX_BRUTE_FORCE_JOBS} jobs" in err
    assert "--programs" in err
    assert captured.out == ""


def test_schedule_five_programs(capsys):
    assert main(["schedule", "--method", "brute", "--programs", FIVE]) == 0
    out = capsys.readouterr().out
    assert "method    : brute" in out
    assert "predicted makespan_s" in out
