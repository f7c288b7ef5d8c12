# Convenience targets for the reproduction repository.

.PHONY: install test lint analyze analyze-dims bench bench-backend bench-sim bench-service bench-fleet bench-solvers bench-search bench-engine bench-batch bench-mixed bench-all scan-caps experiments report calibration examples clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

test-fast:
	pytest tests/ -m "not slow"

lint: analyze
	ruff check src tests benchmarks tools
	mypy src/repro
	python tools/check_calibration.py

# Repo-specific REP001-REP011 AST rules (same gate as `repro analyze` in CI).
analyze:
	python -m repro.analysis.lint src tests tools benchmarks examples

# Just the units-aware dataflow checker (REP010/REP011), for quick loops.
analyze-dims:
	python -m repro.analysis.lint --select REP010,REP011 \
		src tests tools benchmarks examples

bench:
	pytest benchmarks/test_perf_layer.py --benchmark-only \
		--benchmark-json=BENCH_perf.json

# The CI speedup gate: backend benchmark -> BENCH_results.json -> check.
bench-backend:
	python -m pytest benchmarks/test_tensor_backend.py -q
	python tools/check_bench.py --min-speedup 2.0

# The event-core gate: >=100k-event preemptive trace at the minimum rate.
bench-sim:
	pytest benchmarks/test_sim_core.py -q
	python tools/check_bench.py --sim-only

# The service-tier gate: 10k+ submissions/s through the async front end,
# p99 turnaround recorded, graceful backpressure under 2x overload.
bench-service:
	pytest benchmarks/test_service_throughput.py -q
	python tools/check_bench.py --service-only

# The fleet gate: 16-job, 4-node GA+refine must beat one APU 2x on
# makespan, execute every job, and verify clean.
bench-fleet:
	pytest benchmarks/test_fleet_solvers.py -q
	python tools/check_bench.py --fleet-only

# The population-solver gate: vectorized GA+refine must beat the
# per-schedule tensor baseline 3x at an equal-or-better objective score.
bench-solvers:
	pytest benchmarks/test_population_solvers.py -q
	python tools/check_bench.py --solvers-only

# Per-layer numbers for a search change: one traced search-large run,
# showing its GA-operator and population-replay layers.  Exits 1, with the
# whole report, when the run fails its correctness checks.
bench-search:
	@out=$$(python -m bench run --workload search-large --seed 1 --trace) \
		|| { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -E '^(==|  perf\.(replay\.)?population\.)'

# Per-layer numbers for an event-core change: one traced sim-trace run,
# showing its engine layers and event rate.  Exits 1, with the whole
# report, when the run fails its correctness checks.
bench-engine:
	@out=$$(python -m bench run --workload sim-trace --seed 1 --trace) \
		|| { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -E '^(==|  engine\.)'

# Per-layer numbers for a change to the per-request path: one traced
# paper-batch run, showing its profile, tensorize, pair-table, context and HCS
# layers.  Exits 1, with the whole report, when the run fails its
# correctness checks.
bench-batch:
	@out=$$(python -m bench run --workload paper-batch --seed 1 --trace) \
		|| { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -E '^(==|  (model\.profile|core\.(hcs|context)|perf\.(tensorize|pair_tables))\.)'

# Per-layer numbers for a change to the online service: one traced
# service-mixed run, showing its service and store layers.  Exits 1, with
# the whole report, when the run fails its correctness checks.
bench-mixed:
	@out=$$(python -m bench run --workload service-mixed --seed 1 --trace) \
		|| { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -E '^(==|  (service|store)\.)'

bench-all:
	python -m pytest benchmarks/ --benchmark-only

# Low-cap scan: per registry method (all but astar and brute), how many of
# 16 random instances raise and the makespan against the better one-device
# plan, at 6-10 W (the table RESULTS.md records).
scan-caps:
	python tools/cap_scan.py

experiments:
	python -m repro all --quiet

report:
	python -m repro.report RESULTS.md

calibration:
	python tools/check_calibration.py

examples:
	python examples/quickstart.py
	python examples/batch_server.py
	python examples/power_cap_explorer.py
	python examples/model_accuracy.py
	python examples/schedule_explorer.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +; true
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
