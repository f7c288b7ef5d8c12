"""repro.perf — the shared evaluation layer.

Everything the schedulers repeatedly pay for — micro-benchmark
characterization, standalone profiling, degradation/power predictions, and
predicted makespans — funnels through this package:

* content-hashed memoization (:class:`EvalCache`, :class:`CachingPredictor`,
  :class:`ScheduleEvaluator`) with hit/miss instrumentation;
* an executor abstraction (``serial`` / ``threads`` / ``processes``) threaded
  through the characterization sweep, workload profiling, the Random
  baseline, GA population evaluation, and brute-force enumeration;
* an optional on-disk cache (:class:`DiskCache`, ``REPRO_CACHE_DIR``) so
  repeated CLI / experiment runs start warm;
* a vectorized tensor backend (:mod:`repro.perf.tensor`) that precomputes
  the whole ``(cpu_job, gpu_job, setting)`` question space as dense NumPy
  tensors and answers scheduler queries — one schedule or a lockstep
  batch — with array lookups instead of interpolation chains;
* vectorized population kernels (:mod:`repro.perf.population`) that run an
  entire GA generation or refinement neighborhood as ``(P, n)`` index
  matrices scored by one lockstep ``score_population`` replay.

All memoization is exact: cached and uncached evaluation produce identical
schedules and makespans, and the tensor backend is bit-for-bit equal to the
scalar reference path.
"""

from repro.perf.cache import CacheStats, EvalCache, ensure_cache, fingerprint
from repro.perf.diskcache import CACHE_DIR_ENV, DiskCache, resolve_disk_cache
from repro.perf.evaluator import CachingPredictor, ScheduleEvaluator, schedule_key
from repro.perf.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    executor_names,
    make_executor,
)
from repro.perf.parallel import map_makespans, map_pair_degradations

# Imported last: repro.perf.tensor imports from the submodules above.
from repro.perf.tensor import (
    BatchScheduleEvaluator,
    PairTables,
    TensorBackedPredictor,
    TensorModel,
    tensorize,
)
from repro.perf.population import (
    decode_queues,
    evolve_population,
    refine_queues,
    swap_neighborhood,
)

__all__ = [
    "CacheStats",
    "EvalCache",
    "ensure_cache",
    "fingerprint",
    "CACHE_DIR_ENV",
    "DiskCache",
    "resolve_disk_cache",
    "CachingPredictor",
    "ScheduleEvaluator",
    "schedule_key",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "executor_names",
    "make_executor",
    "map_makespans",
    "map_pair_degradations",
    "BatchScheduleEvaluator",
    "PairTables",
    "TensorBackedPredictor",
    "TensorModel",
    "tensorize",
    "decode_queues",
    "evolve_population",
    "refine_queues",
    "swap_neighborhood",
]
