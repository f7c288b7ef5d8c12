"""Self-test of the benchmark: ``pytest bench/tests -q``.

Runs every workload twice at smoke size (tiny inputs, one pass of each
kind), once untraced and once traced, through the same command the
benchmark is run with, and checks the benchmark's own contract.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from bench import spec as specs
from bench.compare import DETERMINISTIC, verdict
from bench.trace import LAYER_NAMES

SPEC = specs.load()
WORKLOADS = specs.workload_names(SPEC)

#: The workload each wrapped layer does most of its work on.
PRIMARY = {
    "model.profile": "paper-batch",
    "model.characterize": "service-mixed",
    "perf.tensorize": "paper-batch",
    "perf.pair_tables": "paper-batch",
    "core.context": "paper-batch",
    "core.hcs": "paper-batch",
    "core.refine": "search-large",
    "core.genetic": "search-large",
    "core.portfolio": "search-large",
    "core.baselines": "paper-batch",
    "perf.population": "search-large",
    "perf.replay.single": "paper-batch",
    "perf.replay.batch": "search-large",
    "perf.replay.population": "search-large",
    "engine.run.fixed": "paper-batch",
    "engine.run.arrivals": "sim-trace",
    "engine.run.timeshare": "sim-trace",
    "engine.feedback": "sim-trace",
    "service.decode": "service-mixed",
    "service.encode": "service-mixed",
    "service.handle": "service-mixed",
    "service.session": "service-mixed",
    "service.scheduler": "service-mixed",
    "store.commit": "service-mixed",
    "store.append": "service-mixed",
    "store.snapshot": "service-mixed",
}


def _bench(*argv: str, cwd=specs.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *argv],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """``{(workload, trace): (last stdout line, run record, --out path)}``."""
    out_dir = tmp_path_factory.mktemp("bench")
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = out_dir / f"{workload}-{trace}.json"
            argv = [
                "run", "--workload", workload, "--seed", "3",
                "--trace", str(trace), "--smoke", "--out", str(out),
            ]
            if trace:
                argv += ["--trace-out", str(out_dir / f"{workload}.trace.json")]
            proc = _bench(*argv)
            assert proc.returncode == 0, proc.stderr
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(out, encoding="utf-8") as fh:
                runs[workload, trace] = (last, json.load(fh)["runs"][0], out)
    return runs


def test_every_layer_of_the_spec_is_traced():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for layer in LAYER_NAMES:
        assert {f"{layer}.calls", f"{layer}.self_s", f"{layer}.share"} <= per_layer
    assert set(PRIMARY) == set(LAYER_NAMES) - {"bench.check"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_every_metric_with_its_unit(smoke_runs, workload, trace):
    last, _, _ = smoke_runs[workload, trace]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in section]
    for metric in section:
        reported = last["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())


@pytest.mark.parametrize("layer", sorted(PRIMARY))
def test_layer_is_called_on_its_primary_workload(smoke_runs, layer):
    _, record, _ = smoke_runs[PRIMARY[layer], 1]
    assert record["per_layer"][f"{layer}.calls"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_wall_is_attributed_to_named_layers(smoke_runs, workload):
    _, record, _ = smoke_runs[workload, 1]
    assert record["per_layer"]["unattributed.share"] < 0.2
    shares = sum(record["per_layer"][f"{layer}.share"] for layer in LAYER_NAMES)
    assert shares + record["per_layer"]["unattributed.share"] == pytest.approx(1.0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_export_as_chrome_trace_events(smoke_runs, workload):
    _, _, out = smoke_runs[workload, 1]
    with open(out.with_name(f"{workload}.trace.json"), encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    assert events
    assert {e["name"] for e in events} <= set(LAYER_NAMES)
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_does_not_change_deterministic_results(smoke_runs, workload):
    _, untraced, _ = smoke_runs[workload, 0]
    _, traced, _ = smoke_runs[workload, 1]
    keys = [k for k in DETERMINISTIC if k in untraced["diagnostics"]]
    assert keys
    for key in keys:
        assert traced["diagnostics"][key] == untraced["diagnostics"][key], key


def test_compare_accepts_a_run_against_itself(smoke_runs):
    _, _, out = smoke_runs["paper-batch", 0]
    proc = _bench("compare", str(out), str(out))
    assert proc.returncode == 0, proc.stdout
    assert "within-bound" in proc.stdout
    assert "deterministic diagnostics identical" in proc.stdout


def test_compare_fails_on_a_changed_deterministic_diagnostic(smoke_runs, tmp_path):
    _, _, out = smoke_runs["paper-batch", 0]
    with open(out, encoding="utf-8") as fh:
        record = json.load(fh)
    record["runs"][0]["diagnostics"]["speedup_vs_random"] *= 1.01
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(record), encoding="utf-8")
    proc = _bench("compare", str(out), str(changed))
    assert proc.returncode == 1, proc.stdout
    assert "speedup_vs_random@seed3" in proc.stdout


def test_compare_fails_without_matching_seeds(smoke_runs, tmp_path):
    _, _, out = smoke_runs["paper-batch", 0]
    with open(out, encoding="utf-8") as fh:
        record = json.load(fh)
    record["runs"][0]["seed"] += 1
    other = tmp_path / "other-seed.json"
    other.write_text(json.dumps(record), encoding="utf-8")
    proc = _bench("compare", str(out), str(other))
    assert proc.returncode == 1, proc.stdout
    assert "no seed runs on both sides" in proc.stdout


def test_run_length_is_fixed_by_the_spec():
    seconds = str(SPEC["run_seconds"] + 1)
    proc = _bench("run", "--workload", "paper-batch", "--seconds", seconds)
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""


def test_verdicts():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9]
    assert verdict(parent, [v * 1.01 for v in parent], "lower", 0.1)[0] == "within-bound"
    assert verdict(parent, [v * 1.5 for v in parent], "lower", 0.1)[0] == "worse"
    assert verdict(parent, [v * 0.5 for v in parent], "lower", 0.1)[0] == "better"
    assert verdict(parent, [v * 0.5 for v in parent], "higher", 0.1)[0] == "worse"
    noisy = [5.0, 10.0, 15.0, 10.0, 20.0]
    assert verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(specs.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        specs.ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _bench("run", "--workload", "paper-batch", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
