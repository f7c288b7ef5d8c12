"""Co-scheduling algorithms (the paper's Section IV).

The optimal co-scheduling problem (Definition 2.1) is NP-hard, so the paper
contributes:

* the **Co-Run Theorem** — when co-running two jobs beats running them
  sequentially (:mod:`repro.core.theorem`);
* a 3-step **heuristic algorithm (HCS)** — theorem-based partition,
  preference categorization, greedy minimum-interference pairing
  (:mod:`repro.core.partition`, :mod:`repro.core.categorize`,
  :mod:`repro.core.greedy`, assembled in :mod:`repro.core.hcs`);
* a 3-step **post local refinement (HCS+)** (:mod:`repro.core.refine`);
* a **lower bound** on the optimal makespan (:mod:`repro.core.bounds`);

plus the comparison points of Section VI-A — Random and Default baselines
(:mod:`repro.core.baselines`) with GPU-/CPU-biased power-cap policies
(:mod:`repro.core.freqpolicy`) — a brute-force exact search for small
instances (:mod:`repro.core.bruteforce`), and a one-stop runtime facade
(:mod:`repro.core.runtime`).
"""

from repro.core.theorem import (
    corun_lengths,
    corun_makespan,
    corun_beneficial_theorem,
    corun_beneficial_exact,
)
from repro.core.schedule import (
    CoSchedule,
    PredictedMetrics,
    predicted_makespan,
    predicted_metrics,
)
from repro.core.context import SchedulingContext
from repro.core.feasibility import (
    pair_energy_j,
    pair_settings_under_cap,
    predicted_power,
    solo_energy_j,
    solo_levels_under_cap,
)
from repro.core.freqpolicy import Bias, BiasedGovernor, ModelGovernor
from repro.core.partition import partition_jobs
from repro.core.categorize import Preference, categorize_jobs
from repro.core.greedy import greedy_schedule
from repro.core.refine import refine_schedule
from repro.core.hcs import HcsResult, hcs_schedule
from repro.core.bounds import LowerBoundDetail, lower_bound
from repro.core.baselines import default_partition, random_schedule
from repro.core.bruteforce import brute_force_best
from repro.core.astar import AStarScheduler, astar_schedule
from repro.core.genetic import GaConfig, GeneticScheduler, genetic_schedule
from repro.core.objectives import EnergyAwareGovernor, governor_for
from repro.objective import MAKESPAN_ENERGY_RHO, Objective
from repro.core.online import FifoOnlinePolicy, HcsOnlinePolicy, ReplanOnlinePolicy
from repro.core.portfolio import DEFAULT_MEMBERS, portfolio_schedule
from repro.core.splitting import SplitOutcome, best_split
from repro.core.runtime import CoScheduleRuntime, RandomAverage, ScheduleOutcome
from repro.errors import InfeasibleCapError

# NOTE: binding ``schedule`` here intentionally shadows the submodule
# attribute ``repro.core.schedule`` on the package object; the submodule
# stays importable (``from repro.core.schedule import ...``) via sys.modules.
from repro.core.api import (
    ScheduleResult,
    Scheduler,
    register_scheduler,
    schedule,
    scheduler_names,
)

__all__ = [
    "corun_lengths",
    "corun_makespan",
    "corun_beneficial_theorem",
    "corun_beneficial_exact",
    "CoSchedule",
    "PredictedMetrics",
    "predicted_makespan",
    "predicted_metrics",
    "SchedulingContext",
    "pair_energy_j",
    "pair_settings_under_cap",
    "predicted_power",
    "solo_energy_j",
    "solo_levels_under_cap",
    "Bias",
    "BiasedGovernor",
    "ModelGovernor",
    "partition_jobs",
    "Preference",
    "categorize_jobs",
    "greedy_schedule",
    "refine_schedule",
    "HcsResult",
    "hcs_schedule",
    "LowerBoundDetail",
    "lower_bound",
    "random_schedule",
    "default_partition",
    "brute_force_best",
    "AStarScheduler",
    "astar_schedule",
    "GaConfig",
    "GeneticScheduler",
    "genetic_schedule",
    "EnergyAwareGovernor",
    "MAKESPAN_ENERGY_RHO",
    "Objective",
    "governor_for",
    "FifoOnlinePolicy",
    "HcsOnlinePolicy",
    "ReplanOnlinePolicy",
    "DEFAULT_MEMBERS",
    "portfolio_schedule",
    "SplitOutcome",
    "best_split",
    "CoScheduleRuntime",
    "RandomAverage",
    "ScheduleOutcome",
    "InfeasibleCapError",
    "ScheduleResult",
    "Scheduler",
    "register_scheduler",
    "schedule",
    "scheduler_names",
]
