"""The co-scheduling runtime facade.

One object that owns the whole pipeline of the paper's prototype runtime:
profile the workload standalone, characterize the degradation space once,
build the predictor, compute schedules with any of the five policies
(Random, Default_G, Default_C, HCS, HCS+), execute them on the ground-truth
engine, and report makespans, speedups, power traces, and the lower bound.

This is the main entry point for library users::

    from repro import CoScheduleRuntime, make_jobs, rodinia_programs

    runtime = CoScheduleRuntime(make_jobs(rodinia_programs()), cap_w=15.0)
    hcs = runtime.run_hcs(refine=True)
    random_mean = runtime.random_average(n=20).mean_makespan_s
    print(random_mean / hcs.makespan_s)   # speedup over Random

The runtime is a thin composition over the same pieces every other caller
uses: the model comes from :func:`~repro.core.context.build_predictor`
(wrapped in a shared evaluation cache, ``cache``; profiling and
characterization optionally persist to disk via ``disk_cache`` /
``REPRO_CACHE_DIR``), every policy runs on a fresh
:meth:`CoScheduleRuntime.context`, HCS goes through the scheduler registry
(:func:`~repro.core.api.dispatch`), and every execution goes through
:meth:`~repro.core.context.SchedulingContext.simulate`, so it is labelled
and scored with the runtime's objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.hardware.calibration import DEFAULT_POWER_CAP_W
from repro.hardware.processor import IntegratedProcessor
from repro.workload.program import Job
from repro.engine.multiprog import DEFAULT_CS_OVERHEAD
from repro.engine.sim import ExecutionResult, Scenario
from repro.model.space import DegradationSpace
from repro.core.api import dispatch
from repro.core.baselines import RandomOnlinePolicy, default_partition
from repro.core.bounds import lower_bound
from repro.core.context import SchedulingContext, build_predictor
from repro.core.freqpolicy import Bias, BiasedGovernor
from repro.objective import Objective
from repro.core.schedule import CoSchedule
from repro.perf.cache import EvalCache
from repro.util.rng import default_rng, spawn_rng


@dataclass(frozen=True)
class ScheduleOutcome:
    """A schedule plus its measured (simulated ground-truth) execution.

    ``cache_stats`` is a snapshot of the runtime's shared evaluation-cache
    counters taken when the outcome was produced (``None`` for outcomes
    built outside a runtime).
    """

    policy: str
    schedule: CoSchedule | None
    execution: ExecutionResult
    scheduling_time_s: float = 0.0
    cache_stats: dict[str, float] | None = None

    @property
    def makespan_s(self) -> float:
        return self.execution.makespan_s


@dataclass(frozen=True)
class RandomAverage:
    """Aggregate of repeated Random-baseline runs (the paper uses 20)."""

    outcomes: tuple[ScheduleOutcome, ...]

    @property
    def mean_makespan_s(self) -> float:
        return float(np.mean([o.makespan_s for o in self.outcomes]))


class CoScheduleRuntime:
    """End-to-end co-scheduling runtime over one processor and job set."""

    def __init__(
        self,
        jobs: Sequence[Job],
        *,
        processor: IntegratedProcessor | None = None,
        cap_w: float = DEFAULT_POWER_CAP_W,
        objective: Objective | str = Objective.MAKESPAN,
        space: DegradationSpace | None = None,
        cache: EvalCache | None = None,
        disk_cache=None,
    ) -> None:
        if not jobs:
            raise ValueError("need at least one job")
        self.jobs = tuple(jobs)
        self.cap_w = cap_w
        self.objective = Objective.coerce(objective)
        self.cache = cache if cache is not None else EvalCache()
        self.predictor = build_predictor(
            self.jobs,
            processor=processor,
            space=space,
            cache=self.cache,
            disk_cache=disk_cache,
        )
        model = self.predictor.inner
        self.processor = model.processor
        self.table = model.table
        self.space = model.space

    # ------------------------------------------------------------------
    # Context
    # ------------------------------------------------------------------
    def context(
        self, *, objective: Objective | str | None = None, seed=None
    ) -> SchedulingContext:
        """The frozen :class:`SchedulingContext` the policies run under.

        ``objective`` defaults to the runtime's objective; pass one to
        derive a one-off context (e.g. compute an energy-optimal schedule
        from a runtime otherwise used for makespan studies).
        """
        return SchedulingContext(
            jobs=self.jobs,
            cap_w=self.cap_w,
            predictor=self.predictor,
            objective=(
                self.objective if objective is None else Objective.coerce(objective)
            ),
            seed=seed,
        )

    # ------------------------------------------------------------------
    # Policies
    # ------------------------------------------------------------------
    def run_hcs(
        self, *, refine: bool = False, seed=None, threshold: float | None = None
    ) -> ScheduleOutcome:
        """HCS (or HCS+ with ``refine=True``): schedule, then execute."""
        opts = {} if threshold is None else {"threshold": threshold}
        ctx = self.context(seed=seed)
        result = dispatch(ctx, "hcs+" if refine else "hcs", **opts)
        return self._outcome(
            ctx,
            result.method,
            Scenario.from_schedule(result.schedule),
            schedule=result.schedule,
            scheduling_time_s=result.details["hcs"].scheduling_time_s,
        )

    def run_random(self, *, seed=None, bias: Bias = Bias.GPU) -> ScheduleOutcome:
        """One Random-baseline sample: online random picks under a biased
        cap policy (the paper's semantics — the whole batch is present at
        time zero, and an idle processor grabs a random remaining job or
        is occasionally left idle)."""
        return self._outcome(
            self.context(),
            "random",
            Scenario.from_arrivals([(job, 0.0) for job in self.jobs]),
            policy=RandomOnlinePolicy(seed),
            governor=BiasedGovernor(self.predictor, self.cap_w, bias),
        )

    def random_average(
        self, *, n: int = 20, seed=None, bias: Bias = Bias.GPU
    ) -> RandomAverage:
        """Average of ``n`` Random runs with independent seeds (paper: 20).

        Every repetition's generator is spawned up front from ``seed``.
        """
        rng = default_rng(seed)
        return RandomAverage(
            outcomes=tuple(
                self.run_random(seed=child, bias=bias)
                for child in spawn_rng(rng, n)
            )
        )

    def run_default(
        self,
        *,
        bias: Bias = Bias.GPU,
        cs_overhead: float = DEFAULT_CS_OVERHEAD,
    ) -> ScheduleOutcome:
        """Default baseline (Default_G / Default_C by ``bias``)."""
        part = default_partition(self.table, self.jobs)
        return self._outcome(
            self.context(),
            "default_g" if bias is Bias.GPU else "default_c",
            Scenario.timeshare(
                part.cpu_partition, part.gpu_partition, cs_overhead=cs_overhead
            ),
            governor=BiasedGovernor(self.predictor, self.cap_w, bias),
        )

    def _outcome(
        self,
        ctx: SchedulingContext,
        name: str,
        scenario: Scenario,
        *,
        schedule: CoSchedule | None = None,
        scheduling_time_s: float = 0.0,
        **simulate,
    ) -> ScheduleOutcome:
        """Execute ``scenario`` on ``ctx``; the outcome is labelled ``name``."""
        execution = ctx.simulate(scenario, **simulate)
        return ScheduleOutcome(
            policy=name,
            schedule=schedule,
            execution=execution,
            scheduling_time_s=scheduling_time_s,
            cache_stats=self.cache.snapshot(),
        )

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def execute(self, schedule: CoSchedule, governor=None) -> ExecutionResult:
        """Execute an arbitrary schedule.

        The default governor is the runtime context's (the HCS
        ModelGovernor for makespan, the energy-aware one otherwise)."""
        return self.context().simulate(
            Scenario.from_schedule(schedule), governor=governor
        )

    def lower_bound_s(self, *, deg_source=None) -> float:
        """The Section IV-B lower bound for this job set and cap."""
        bound, _ = lower_bound(
            self.predictor, self.jobs, self.cap_w, deg_source=deg_source
        )
        return bound

    def perf_stats(self) -> dict[str, float]:
        """Evaluation-layer counters (cache hits/misses/entries, hit rate)."""
        return self.cache.snapshot()
