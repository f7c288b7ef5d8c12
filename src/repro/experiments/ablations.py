"""Ablation studies over the design choices DESIGN.md calls out.

These go beyond the paper's own evaluation: each sweeps one knob of the
method while holding everything else at its default, quantifying how much
that choice matters.

* ``threshold_sweep`` — the preference threshold D (paper: 20%);
* ``grid_resolution`` — the degradation-space resolution (paper: 11x11);
* ``cap_sweep`` — the power-cap level (paper: 15 W);
* ``refine_ablation`` — contribution of each HCS+ refinement pass;
* ``oracle_gap`` — HCS driven by the interpolation model versus by
  ground-truth degradations (the cost of model error).
"""

from __future__ import annotations

import numpy as np

from repro.hardware.calibration import DEFAULT_POWER_CAP_W
from repro.workload.program import make_jobs
from repro.workload.rodinia import rodinia_programs
from repro.core.context import SchedulingContext
from repro.core.hcs import hcs_schedule
from repro.core.refine import (
    SAMPLES_PER_JOB,
    _adjacent_pass,
    _random_cross_pass,
    _random_intra_pass,
)
from repro.core.runtime import CoScheduleRuntime
from repro.model.accuracy import evaluate_performance_model
from repro.model.characterize import characterize_space
from repro.model.predictor import CoRunPredictor, OracleDegradations
from repro.experiments.common import ExperimentResult, default_runtime
from repro.util.tables import format_table


def threshold_sweep(
    thresholds=(0.0, 0.1, 0.2, 0.4, 1.0), cap_w: float = DEFAULT_POWER_CAP_W
):
    """HCS quality as a function of the preference threshold D."""
    runtime = default_runtime(cap_w=cap_w)
    baseline = runtime.random_average(n=10).mean_makespan_s
    rows = []
    for d in thresholds:
        outcome = runtime.run_hcs(threshold=d)
        rows.append((f"D={d:.1f}", outcome.makespan_s, baseline / outcome.makespan_s))
    return rows


def grid_resolution(levels=(3, 5, 7, 11, 15)):
    """Performance-model error as a function of the grid resolution."""
    runtime = default_runtime()
    rows = []
    for n in levels:
        space = characterize_space(runtime.processor, n_levels=n)
        predictor = CoRunPredictor(runtime.processor, runtime.table, space)
        records = evaluate_performance_model(
            runtime.processor, predictor, runtime.table.uids,
            runtime.processor.max_setting,
        )
        errors = np.array([r.error for r in records])
        rows.append((f"{n}x{n}", n * n, 100 * float(errors.mean())))
    return rows


def cap_sweep(caps=(12.0, 15.0, 18.0, 21.0, 25.0)):
    """HCS+ speedup over Random across power-cap levels."""
    jobs = make_jobs(rodinia_programs())
    rows = []
    for cap in caps:
        runtime = CoScheduleRuntime(jobs, cap_w=cap)
        baseline = runtime.random_average(n=10).mean_makespan_s
        outcome = runtime.run_hcs(refine=True)
        rows.append((f"{cap:.0f} W", outcome.makespan_s, baseline / outcome.makespan_s))
    return rows


def refine_ablation(
    cap_w: float = DEFAULT_POWER_CAP_W,
    instances: int = 2,
    objective: str = "makespan",
    seed: int | None = None,
):
    """Predicted-score gain of each refinement pass in isolation.

    Each pass restarts from the unrefined HCS schedule so the rows report
    independent contributions, not a cumulative pipeline.  Under a
    non-makespan ``objective`` the same passes minimize that objective's
    predicted score (the evaluator is the only scorer).
    """
    runtime = default_runtime(instances=instances, cap_w=cap_w)
    ctx = runtime.context(objective=objective, seed=seed)
    result = hcs_schedule(ctx)
    evaluate = ctx.evaluator
    base = evaluate(result.schedule)
    rng = ctx.rng()
    n_samples = SAMPLES_PER_JOB * result.schedule.n_jobs

    rows = [("no refinement", base, 0.0)]
    for label, pass_fn in (
        ("adjacent swaps", lambda s, b: _adjacent_pass(s, evaluate, b)),
        ("random intra-processor swaps",
         lambda s, b: _random_intra_pass(s, evaluate, b, rng, n_samples)),
        ("random cross-processor swaps",
         lambda s, b: _random_cross_pass(s, evaluate, b, rng, n_samples)),
    ):
        _, refined = pass_fn(result.schedule, base)
        rows.append((label, refined, 100 * (base - refined) / base))
    return rows


def anchor_sweep():
    """Single-anchor vs staged multi-anchor interpolation accuracy.

    The extra anchors cost 121 micro co-runs each; the payoff appears at
    settings far from the both-max anchor.
    """
    from repro.model.characterize import characterize_staged_space

    runtime = default_runtime()
    single = runtime.predictor
    staged = CoRunPredictor(
        runtime.processor, runtime.table, characterize_staged_space(runtime.processor)
    )
    rows = []
    for label, setting in (
        ("both max", runtime.processor.max_setting),
        ("both medium", runtime.processor.medium_setting),
        ("both min", runtime.processor.min_setting),
    ):
        e_single = np.mean([
            r.error
            for r in evaluate_performance_model(
                runtime.processor, single, runtime.table.uids, setting
            )
        ])
        e_staged = np.mean([
            r.error
            for r in evaluate_performance_model(
                runtime.processor, staged, runtime.table.uids, setting
            )
        ])
        rows.append((label, 100 * float(e_single), 100 * float(e_staged)))
    return rows


def oracle_gap(cap_w: float = DEFAULT_POWER_CAP_W):
    """Measured HCS makespan with the interpolation model vs an oracle.

    The oracle variant feeds ground-truth degradations into the greedy
    pairing (placement and frequency choices still come from the model's
    profiled times); the gap is the scheduling cost of model error.
    """
    runtime = default_runtime(cap_w=cap_w)
    model_outcome = runtime.run_hcs()

    oracle = OracleDegradations(runtime.processor, runtime.table)
    # A thin predictor whose degradations come from the oracle but whose
    # times/powers still come from the profiled table.
    class _OraclePredictor(CoRunPredictor):
        def degradations(self, cpu_uid, gpu_uid, setting):
            return oracle.degradations(cpu_uid, gpu_uid, setting)

    oracle_predictor = _OraclePredictor(
        runtime.processor, runtime.table, runtime.space
    )
    oracle_result = hcs_schedule(
        SchedulingContext(
            jobs=runtime.jobs, cap_w=cap_w, predictor=oracle_predictor
        )
    )
    oracle_exec = runtime.execute(
        oracle_result.schedule, oracle_result.governor
    )
    return [
        ("interpolation model", model_outcome.makespan_s),
        ("ground-truth oracle", oracle_exec.makespan_s),
    ]


def run(objective: str = "makespan") -> ExperimentResult:
    result = ExperimentResult(name="ablations", title="Design-choice ablations")
    result.add_section(
        "preference threshold D (paper default 0.2)",
        format_table(["threshold", "HCS makespan (s)", "speedup/random"],
                     threshold_sweep(), ndigits=3),
    )
    result.add_section(
        "degradation-space grid resolution (paper 11x11)",
        format_table(["grid", "micro co-runs", "mean model error %"],
                     grid_resolution(), ndigits=2),
    )
    result.add_section(
        "power-cap sweep (HCS+)",
        format_table(["cap", "makespan (s)", "speedup/random"],
                     cap_sweep(), ndigits=3),
    )
    result.add_section(
        f"refinement passes (16 jobs, predicted {objective} score)",
        format_table(["pass", f"predicted {objective}", "gain %"],
                     refine_ablation(objective=objective), ndigits=3),
    )
    result.add_section(
        "model-error cost (8 jobs, measured makespan)",
        format_table(["degradation source", "HCS makespan (s)"],
                     oracle_gap(), ndigits=2),
    )
    result.add_section(
        "frequency anchors in the staged interpolation",
        format_table(
            ["evaluation setting", "1 anchor error %", "4 anchors error %"],
            anchor_sweep(),
            ndigits=2,
        ),
    )
    return result
