"""Robustness studies: how much fidelity does the pipeline really need?

Three questions a deployer of the paper's runtime would ask, answered on
the calibrated workload:

* **Noise injection** — if the degradation predictions were worse (every
  prediction perturbed by multiplicative lognormal noise), how fast does
  HCS's schedule quality decay?  This turns Figure 7's "is 15% error good
  enough?" into a curve.
* **Sampled profiles** — replacing offline standalone profiling with the
  Section V-C online prefix-sampling estimator: what do the cheap profiles
  cost in profile accuracy and in end-to-end makespan?
* **Search headroom** — an A*-search comparator (extending the Tian et al.
  approach the paper discusses) over the same predicted model: how close is
  greedy HCS to what exhaustive search finds?
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.hardware.calibration import DEFAULT_POWER_CAP_W
from repro.core.astar import astar_schedule
from repro.core.context import SchedulingContext
from repro.core.hcs import hcs_schedule
from repro.core.runtime import CoScheduleRuntime
from repro.model.predictor import CoRunPredictor
from repro.model.sampling import (
    SamplingConfig,
    profile_estimation_errors,
    sample_profile_table,
)
from repro.experiments.common import ExperimentResult, default_runtime
from repro.util.rng import default_rng
from repro.util.tables import format_kv, format_table


@dataclass(frozen=True)
class NoisyPredictor(CoRunPredictor):
    """A predictor whose degradations carry extra multiplicative noise.

    The noise is deterministic per (pair, setting) — the same wrong answer
    every time, like a systematically biased model, rather than a jittery
    one.
    """

    noise_sigma: float = 0.0
    seed: int = 0

    def degradations(self, cpu_uid, gpu_uid, setting):
        d_c, d_g = super().degradations(cpu_uid, gpu_uid, setting)
        if self.noise_sigma <= 0.0:
            return d_c, d_g
        # crc32, not ``hash()``: the builtin is salted per process, which
        # would change the noise (and the sweep's rows) on every run.
        key = zlib.crc32(repr((cpu_uid, gpu_uid, setting, self.seed)).encode())
        rng = default_rng(key)
        factors = np.exp(rng.normal(0.0, self.noise_sigma, size=2))
        return d_c * float(factors[0]), d_g * float(factors[1])


def noise_sweep(
    sigmas=(0.0, 0.25, 0.5, 1.0, 2.0),
    cap_w: float = DEFAULT_POWER_CAP_W,
    n_seeds: int = 3,
):
    """Measured HCS makespan as prediction noise grows."""
    runtime = default_runtime(cap_w=cap_w)
    rows = []
    for sigma in sigmas:
        makespans = []
        for seed in range(n_seeds):
            noisy = NoisyPredictor(
                runtime.processor,
                runtime.table,
                runtime.space,
                noise_sigma=sigma,
                seed=seed,
            )
            result = hcs_schedule(
                SchedulingContext(jobs=runtime.jobs, cap_w=cap_w, predictor=noisy)
            )
            execution = runtime.execute(result.schedule, result.governor)
            makespans.append(execution.makespan_s)
        rows.append((f"sigma={sigma:.2f}", float(np.mean(makespans))))
    return rows


def sampled_profiles_study(
    cap_w: float = DEFAULT_POWER_CAP_W,
    config: SamplingConfig | None = None,
):
    """Offline profiling vs prefix-sampling estimation, end to end."""
    if config is None:
        config = SamplingConfig()
    runtime = default_runtime(cap_w=cap_w)
    sampled_table = sample_profile_table(
        runtime.processor, list(runtime.jobs), config
    )
    errors = profile_estimation_errors(runtime.table, sampled_table)

    sampled_predictor = CoRunPredictor(
        runtime.processor, sampled_table, runtime.space
    )
    offline = runtime.run_hcs()
    sampled_result = hcs_schedule(
        SchedulingContext(
            jobs=runtime.jobs, cap_w=cap_w, predictor=sampled_predictor
        )
    )
    sampled_exec = runtime.execute(
        sampled_result.schedule, sampled_result.governor
    )
    summary = {
        **errors,
        "offline_makespan_s": offline.makespan_s,
        "sampled_makespan_s": sampled_exec.makespan_s,
        "sampling_cost_frac": config.sample_fraction
        * config.n_anchor_levels
        / (
            runtime.processor.cpu.domain.n_levels
            + runtime.processor.gpu.domain.n_levels
        ),
    }
    return summary


def search_headroom(cap_w: float = DEFAULT_POWER_CAP_W, n_jobs: int = 6):
    """HCS vs GA vs A* under the same predicted model (measured makespans)."""
    from repro.core.genetic import GaConfig, genetic_schedule

    runtime = default_runtime(cap_w=cap_w)
    jobs = list(runtime.jobs)[:n_jobs]
    sub_runtime = CoScheduleRuntime(
        jobs, processor=runtime.processor, cap_w=cap_w, space=runtime.space
    )
    hcs = sub_runtime.run_hcs()
    ga_schedule_, _ = genetic_schedule(
        sub_runtime.context(seed=0),
        config=GaConfig(population=24, generations=20),
    )
    ga_exec = sub_runtime.execute(ga_schedule_)
    schedule, predicted, expanded = astar_schedule(
        sub_runtime.context(), node_budget=60_000
    )
    astar_exec = sub_runtime.execute(schedule)
    return [
        ("hcs (greedy)", hcs.makespan_s),
        ("genetic algorithm", ga_exec.makespan_s),
        (f"a* ({expanded} nodes)", astar_exec.makespan_s),
    ]


def run() -> ExperimentResult:
    result = ExperimentResult(
        name="robustness", title="Model-fidelity robustness studies"
    )
    noise_rows = noise_sweep()
    result.add_section(
        "HCS vs degradation-prediction noise (measured makespan, 8 jobs)",
        format_table(["noise", "mean makespan (s)"], noise_rows, ndigits=2),
    )
    baseline = noise_rows[0][1]
    worst = max(r[1] for r in noise_rows)
    result.headline["noise_worst_degradation_frac"] = worst / baseline - 1.0

    sampled = sampled_profiles_study()
    result.add_section(
        "offline vs prefix-sampled standalone profiles",
        format_kv(sampled),
    )
    result.headline["sampled_vs_offline_makespan"] = (
        sampled["sampled_makespan_s"] / sampled["offline_makespan_s"]
    )

    headroom = search_headroom()
    result.add_section(
        "greedy HCS vs A* search (6 jobs, same predicted model)",
        format_table(["scheduler", "measured makespan (s)"], headroom, ndigits=2),
    )
    # Rows by label ("a* (N nodes)" -> "a*"), not by position.
    makespan = {label.split(" (")[0]: m for label, m in headroom}
    result.headline["hcs_over_astar"] = makespan["hcs"] / makespan["a*"]
    return result
