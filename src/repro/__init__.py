"""repro — reproduction of "Co-Run Scheduling with Power Cap on Integrated
CPU-GPU Systems" (Zhu, Wu, Shen, Shen, Wang; IPDPS 2017).

The package implements, from scratch:

* an analytical simulator of an Ivy-Bridge-like integrated CPU-GPU
  processor (DVFS, power, shared-memory contention) — :mod:`repro.hardware`;
* an OpenCL-like workload substrate with the paper's tunable
  micro-benchmark and eight Rodinia-calibrated programs —
  :mod:`repro.workload`;
* a phase-resolved ground-truth execution engine — :mod:`repro.engine`;
* the paper's co-run performance/power predictor (micro-benchmark
  characterization + staged interpolation) — :mod:`repro.model`;
* the co-scheduling algorithms: Co-Run Theorem, HCS, HCS+ refinement, the
  makespan lower bound, and the Random/Default baselines with GPU-/CPU-
  biased power-cap policies — :mod:`repro.core`;
* one experiment driver per paper table/figure — :mod:`repro.experiments`
  (also runnable as ``python -m repro <experiment>``).

Quickstart::

    from repro import CoScheduleRuntime, make_jobs, rodinia_programs

    runtime = CoScheduleRuntime(make_jobs(rodinia_programs()), cap_w=15.0)
    hcs_plus = runtime.run_hcs(refine=True)
    baseline = runtime.random_average(n=20)
    print(f"speedup over Random: "
          f"{baseline.mean_makespan_s / hcs_plus.makespan_s:.2f}x")
"""

from repro.hardware import (
    DEFAULT_POWER_CAP_W,
    MODEL_POWER_CAP_W,
    FrequencySetting,
    IntegratedProcessor,
    make_ivy_bridge,
)
from repro.hardware.device import DeviceKind
from repro.workload import (
    Job,
    ProgramProfile,
    make_jobs,
    micro_benchmark,
    random_workload,
    rodinia_programs,
)
from repro.model import (
    CoRunPredictor,
    DegradationSpace,
    characterize_space,
    profile_workload,
)
from repro.core import (
    Bias,
    CoSchedule,
    CoScheduleRuntime,
    InfeasibleCapError,
    Objective,
    ScheduleOutcome,
    ScheduleResult,
    SchedulingContext,
    hcs_schedule,
    lower_bound,
    register_scheduler,
    schedule,
    scheduler_names,
)
from repro.perf import (
    CachingPredictor,
    DiskCache,
    EvalCache,
    ScheduleEvaluator,
)

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_POWER_CAP_W",
    "MODEL_POWER_CAP_W",
    "FrequencySetting",
    "IntegratedProcessor",
    "make_ivy_bridge",
    "DeviceKind",
    "Job",
    "ProgramProfile",
    "make_jobs",
    "micro_benchmark",
    "random_workload",
    "rodinia_programs",
    "CoRunPredictor",
    "DegradationSpace",
    "characterize_space",
    "profile_workload",
    "Bias",
    "CoSchedule",
    "CoScheduleRuntime",
    "ScheduleOutcome",
    "hcs_schedule",
    "lower_bound",
    "InfeasibleCapError",
    "Objective",
    "ScheduleResult",
    "SchedulingContext",
    "register_scheduler",
    "schedule",
    "scheduler_names",
    "CachingPredictor",
    "DiskCache",
    "EvalCache",
    "ScheduleEvaluator",
    "__version__",
]
