"""repro.perf — the shared evaluation layer.

Everything the schedulers repeatedly pay for — micro-benchmark
characterization, standalone profiling, degradation/power predictions, and
predicted makespans — funnels through this package:

* content-hashed memoization (:class:`EvalCache`, :class:`CachingPredictor`,
  :class:`ScheduleEvaluator`) with hit/miss instrumentation;
* an optional on-disk cache (:class:`DiskCache`, ``REPRO_CACHE_DIR``) so
  repeated CLI / experiment runs start warm;
* a vectorized tensor backend (:mod:`repro.perf.tensor`) that precomputes
  the whole ``(cpu_job, gpu_job, setting)`` question space as dense NumPy
  tensors and answers the schedulers' hot questions — one schedule or a
  lockstep batch, a heuristic step, a governor's choice — with array
  lookups instead of interpolation chains (the predictor itself stays
  scalar; the tensor travels with the governor a context builds);
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

# Imported last: repro.perf.tensor imports from the submodules above.
from repro.perf.tensor import (
    BatchScheduleEvaluator,
    PairTables,
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
    "BatchScheduleEvaluator",
    "PairTables",
    "TensorModel",
    "tensorize",
    "decode_queues",
    "evolve_population",
    "refine_queues",
    "swap_neighborhood",
]
