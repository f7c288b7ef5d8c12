"""Benchmark: Section VI-D scheduling overhead (< 0.1% of the makespan)."""

from repro.experiments import overhead


def test_scheduler_overhead(run_experiment):
    result = run_experiment(overhead.run)
    for key, frac in result.headline.items():
        assert frac < 0.001, f"{key} overhead {frac:.3%} exceeds budget"
