"""Uniform experiment overrides: ExperimentConfig routing and CLI flags."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentConfig,
    run_experiment,
)
from repro.perf.diskcache import CACHE_DIR_ENV


@pytest.fixture
def probe_experiment(monkeypatch):
    """A temporary driver that records the kwargs it receives."""
    calls: list[dict] = []

    def driver(cap_w: float = 99.0, *, seed=None) -> ExperimentResult:
        calls.append({"cap_w": cap_w, "seed": seed})
        return ExperimentResult(name="probe", title="probe")

    monkeypatch.setitem(EXPERIMENTS, "probe", driver)
    return calls


class TestConfigRouting:
    def test_defaults_untouched(self, probe_experiment):
        run_experiment("probe")
        assert probe_experiment[-1] == {"cap_w": 99.0, "seed": None}

    def test_supported_overrides_forwarded(self, probe_experiment):
        run_experiment("probe", cap_w=12.0, seed=7)
        assert probe_experiment[-1] == {"cap_w": 12.0, "seed": 7}

    def test_unsupported_override_skipped(self, probe_experiment):
        # the probe driver has no ``objective`` parameter; the override must
        # be dropped rather than raising TypeError
        run_experiment("probe", objective="energy", cap_w=11.0)
        assert probe_experiment[-1] == {"cap_w": 11.0, "seed": None}

    def test_config_bundle(self, probe_experiment):
        cfg = ExperimentConfig(seed=5, cap_w=20.0, objective="energy")
        run_experiment("probe", config=cfg)
        assert probe_experiment[-1] == {"cap_w": 20.0, "seed": 5}

    def test_explicit_kwarg_beats_bundle(self, probe_experiment):
        cfg = ExperimentConfig(seed=5, cap_w=20.0)
        run_experiment("probe", config=cfg, cap_w=30.0)
        assert probe_experiment[-1] == {"cap_w": 30.0, "seed": 5}

    def test_overrides_dict(self):
        assert ExperimentConfig().overrides() == {}
        assert ExperimentConfig(seed=1).overrides() == {"seed": 1}

    def test_real_driver_accepts_cap(self):
        result = run_experiment("overhead", cap_w=17.0)
        assert result.name == "overhead"
        assert result.perf  # perf-layer section populated


class TestCliFlags:
    def test_flags_reach_driver(self, capsys, probe_experiment):
        assert main(["probe", "--quiet", "--seed", "3", "--cap-w", "13"]) == 0
        assert probe_experiment[-1] == {"cap_w": 13.0, "seed": 3}

    def test_cache_dir_sets_env(self, tmp_path, probe_experiment):
        import os

        before = os.environ.get(CACHE_DIR_ENV)
        try:
            assert main(["probe", "--quiet", "--cache-dir", str(tmp_path)]) == 0
            assert os.environ[CACHE_DIR_ENV] == str(tmp_path)
        finally:
            if before is None:
                os.environ.pop(CACHE_DIR_ENV, None)
            else:
                os.environ[CACHE_DIR_ENV] = before

    def test_executor_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--executor", "serial", "fig2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["schedule", "serve"])
    def test_subcommand_executor_flag_rejected(self, capsys, subcommand):
        # Refused while parsing, before any model or server is started.
        with pytest.raises(SystemExit) as exit_info:
            main([subcommand, "--executor", "serial"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --executor serial" in captured.err
        assert captured.out == ""
