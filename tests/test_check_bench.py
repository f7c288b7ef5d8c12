"""``tools/check_bench.py``: every gate passes a good results file and
fails a bad one, through the command line CI runs."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_bench.py"
_spec = importlib.util.spec_from_file_location("check_bench", _TOOL)
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)

#: One passing entry per gate, at or above every default floor.
PASSING = {
    "tensor_backend_ga_refine": {
        "speedup": 6.0, "scalar_s": 1.2, "tensor_s": 0.2,
        "tensor_stats": {"tensor_scalar_fallbacks": 0},
    },
    "sim_core_trace": {
        "events": 150_000, "events_per_s": 120_000.0, "wall_s": 1.25,
    },
    "service_throughput": {
        "submissions": 20_000, "submissions_per_s": 12_000.0,
        "p99_turnaround_s": 0.4, "overload_rejected": 120,
        "overload_submissions_per_s": 9_000.0,
    },
    "fleet_ga_refine": {
        "makespan_speedup": 3.4, "n_nodes": 4, "n_jobs": 16,
        "scheduled": 16, "completed": 16, "fleet_violations": 0,
    },
    "population_ga_refine": {
        "speedup": 5.5, "vectorized_score": 100.0, "baseline_score": 100.0,
        "baseline_s": 2.0, "vectorized_s": 0.4,
        "population_stats": {"tensor_population_calls": 40},
    },
}

#: (mode flags, entry, field path, bad value, expected failure text).
FAILING = [
    ([], "tensor_backend_ga_refine", ("speedup",), 1.9, "below the 2x gate"),
    ([], "tensor_backend_ga_refine",
     ("tensor_stats", "tensor_scalar_fallbacks"), 3, "3 scalar fallbacks"),
    (["--sim-only"], "sim_core_trace", ("events",), 99_999, "100000-event floor"),
    (["--sim-only"], "sim_core_trace", ("events_per_s",), 49_999.0, "50,000/s gate"),
    (["--service-only"], "service_throughput", ("submissions_per_s",), 4_999.0,
     "5,000/s gate"),
    (["--service-only"], "service_throughput", ("p99_turnaround_s",), None,
     "no numeric 'p99_turnaround_s'"),
    (["--service-only"], "service_throughput", ("overload_rejected",), 0,
     "no overload rejections"),
    (["--service-only"], "service_throughput",
     ("overload_submissions_per_s",), 0.0, "overload_submissions_per_s"),
    (["--fleet-only"], "fleet_ga_refine", ("makespan_speedup",), 1.5, "2x gate"),
    (["--fleet-only"], "fleet_ga_refine", ("scheduled",), 15, "15/16 jobs scheduled"),
    (["--fleet-only"], "fleet_ga_refine", ("completed",), 14, "14/16 jobs completed"),
    (["--fleet-only"], "fleet_ga_refine", ("fleet_violations",), 2, "reported 2 violations"),
    (["--solvers-only"], "population_ga_refine", ("speedup",), 2.9, "3x gate"),
    (["--solvers-only"], "population_ga_refine", ("vectorized_score",), 100.5,
     "worse than the scalar trajectory's 100"),
    (["--solvers-only"], "population_ga_refine",
     ("population_stats", "tensor_population_calls"), 0, "never engaged"),
]

MODES = {
    "tensor_backend_ga_refine": [],
    "sim_core_trace": ["--sim-only"],
    "service_throughput": ["--service-only"],
    "fleet_ga_refine": ["--fleet-only"],
    "population_ga_refine": ["--solvers-only"],
}


def _write(tmp_path, benchmarks) -> str:
    path = tmp_path / "BENCH_results.json"
    path.write_text(json.dumps({"benchmarks": benchmarks}))
    return str(path)


@pytest.mark.parametrize("entry", list(MODES))
def test_each_gate_passes_a_good_file(tmp_path, capsys, entry):
    path = _write(tmp_path, {entry: PASSING[entry]})
    assert check_bench.main([path, *MODES[entry]]) == 0
    assert capsys.readouterr().out.startswith("ok: ")


@pytest.mark.parametrize("flags, entry, field, bad, expected", FAILING)
def test_each_check_fails_a_bad_file(tmp_path, capsys, flags, entry, field, bad, expected):
    benchmarks = copy.deepcopy(PASSING)
    target = benchmarks[entry]
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = bad
    assert check_bench.main([_write(tmp_path, benchmarks), *flags]) == 1
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("entry", list(MODES))
def test_entry_required_only_in_its_mode(tmp_path, entry):
    others = {k: v for k, v in PASSING.items() if k != entry}
    path = _write(tmp_path, others)
    assert check_bench.main([path, *MODES[entry]]) == 1
    if entry != "tensor_backend_ga_refine":
        # Default mode checks the optional entries only when present.
        assert check_bench.main([path]) == 0


def test_default_mode_validates_present_optional_entries(tmp_path):
    benchmarks = copy.deepcopy(PASSING)
    benchmarks["sim_core_trace"]["events_per_s"] = 10.0
    assert check_bench.main([_write(tmp_path, benchmarks)]) == 1


def test_only_flags_are_mutually_exclusive(tmp_path):
    with pytest.raises(SystemExit):
        check_bench.main([_write(tmp_path, PASSING), "--sim-only", "--fleet-only"])
