"""Tests for the robustness experiment suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import robustness
from repro.experiments.robustness import (
    NoisyPredictor,
    noise_sweep,
    sampled_profiles_study,
    search_headroom,
)
from repro.experiments.common import default_runtime


class TestNoisyPredictor:
    def test_zero_noise_is_transparent(self):
        runtime = default_runtime()
        clean = runtime.predictor
        noisy = NoisyPredictor(
            runtime.processor, runtime.table, runtime.space, noise_sigma=0.0
        )
        s = runtime.processor.max_setting
        assert noisy.degradations("dwt2d", "cfd", s) == clean.degradations(
            "dwt2d", "cfd", s
        )

    def test_noise_is_deterministic(self):
        runtime = default_runtime()
        a = NoisyPredictor(
            runtime.processor, runtime.table, runtime.space,
            noise_sigma=0.5, seed=1,
        )
        b = NoisyPredictor(
            runtime.processor, runtime.table, runtime.space,
            noise_sigma=0.5, seed=1,
        )
        s = runtime.processor.max_setting
        assert a.degradations("dwt2d", "cfd", s) == b.degradations(
            "dwt2d", "cfd", s
        )

    def test_noise_changes_predictions(self):
        runtime = default_runtime()
        noisy = NoisyPredictor(
            runtime.processor, runtime.table, runtime.space,
            noise_sigma=1.0, seed=2,
        )
        s = runtime.processor.max_setting
        assert noisy.degradations("dwt2d", "streamcluster", s) != (
            runtime.predictor.degradations("dwt2d", "streamcluster", s)
        )

    def test_noise_is_stable_across_hash_seeds(self):
        # The noise must not depend on the per-process string-hash salt,
        # or ``repro robustness`` prints different rows on every run.
        probe = (
            "from repro.experiments.common import default_runtime\n"
            "from repro.experiments.robustness import NoisyPredictor\n"
            "rt = default_runtime()\n"
            "noisy = NoisyPredictor(rt.processor, rt.table, rt.space,\n"
            "                       noise_sigma=0.5, seed=1)\n"
            "s = rt.processor.max_setting\n"
            "print(repr(noisy.degradations('dwt2d', 'cfd', s)))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            result = subprocess.run(
                [sys.executable, "-c", probe],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]


class TestStudies:
    def test_noise_sweep_shape(self):
        rows = noise_sweep(sigmas=(0.0, 1.0), n_seeds=1)
        assert len(rows) == 2
        assert all(m > 0 for _, m in rows)

    def test_sampled_profiles_study(self):
        summary = sampled_profiles_study()
        assert summary["time_mean_error"] < 0.25
        # The cheap profiles must not wreck the schedule.
        assert (
            summary["sampled_makespan_s"] / summary["offline_makespan_s"] < 1.25
        )

    def test_search_headroom(self):
        rows = search_headroom(n_jobs=4)
        assert len(rows) == 3
        assert all(m > 0 for _, m in rows)

    @pytest.mark.slow
    def test_full_driver(self):
        result = robustness.run()
        assert "noise_worst_degradation_frac" in result.headline
        assert result.headline["sampled_vs_offline_makespan"] < 1.25
