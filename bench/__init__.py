"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run ``python -m bench run --workload NAME`` (see ``bench/README.md``).
"""
