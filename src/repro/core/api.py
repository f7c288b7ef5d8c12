"""One front door for every scheduler: ``schedule(jobs, method=...)``.

The package grew six scheduler entry points with six different calling
conventions (``hcs_schedule``, ``random_schedule``, ``default_partition``,
``brute_force_best``, ``astar_schedule``, ``genetic_schedule``).  They all
answer the same question — *given these jobs, this power cap, and this
objective, what co-schedule should run?* — so this module registers each
behind a uniform signature::

    from repro import schedule

    result = schedule(jobs, method="hcs+", cap_w=15.0, seed=0)
    result.schedule              # the CoSchedule
    result.predicted_makespan_s  # its makespan under the shared model
    result.details               # method-specific extras (HcsResult, ...)

    energy = schedule(jobs, method="hcs+", cap_w=15.0, objective="energy")
    energy.predicted_score       # predicted energy (J) — what was minimized

All methods share one :class:`~repro.core.context.SchedulingContext` — one
predictor, one objective-aware governor, one :mod:`repro.perf` evaluation
cache — so cross-method comparisons are apples-to-apples and repeated calls
on the same instance reuse work.  When ``predictor`` is omitted, the
workload is profiled and the degradation space characterized on the spot
(optionally persisted via ``disk_cache``).

Every caller reaches a scheduler the same way: a context, then
:func:`dispatch` (registry lookup, adapter, result finalization, sanitizer).
:func:`schedule` builds the context per call, :class:`Scheduler` holds
a caller's predictor and builds one context per call under a changing cap
(the online service), and :class:`~repro.core.runtime.CoScheduleRuntime`
adds execution on top.  The per-method functions (``hcs_schedule``,
``genetic_schedule``, ...) stay public and take the same context as their
first argument.  New schedulers plug in with :func:`register_scheduler`;
adapters receive the context plus the caller's method-specific options.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from collections.abc import Callable, Mapping, Sequence

from repro.workload.program import Job
from repro.core.baselines import default_partition, random_schedule
from repro.core.bruteforce import brute_force_best
from repro.core.context import SchedulingContext
from repro.core.feasibility import repair_schedule, require_cap_feasible
from repro.core.objectives import governor_for
from repro.objective import Objective
from repro.core.schedule import CoSchedule
from repro.model.predictor import CoRunPredictor
from repro.perf.cache import EvalCache
from repro.perf.evaluator import CachingPredictor


@dataclass(frozen=True)
class ScheduleResult:
    """Uniform scheduler output: the schedule plus its model-predicted scores.

    ``predicted_makespan_s`` is always the predicted makespan;
    ``predicted_score`` is the predicted value of the objective the method
    optimized (identical to the makespan for the default objective).
    ``details`` carries whatever the underlying method natively returns
    (e.g. the full :class:`~repro.core.hcs.HcsResult`, A*'s node count, the
    GA's fitness) without widening the common surface.  ``governor`` is the
    cap-aware frequency policy the scores were computed under — hand it to
    the execution engine to measure the schedule consistently.
    """

    method: str
    schedule: CoSchedule
    predicted_makespan_s: float
    details: Mapping[str, object] = field(
        default_factory=lambda: MappingProxyType({})
    )
    cache_stats: dict[str, float] | None = None
    objective: Objective = Objective.MAKESPAN
    predicted_score: float | None = None
    governor: object | None = None

    def __post_init__(self) -> None:
        if self.predicted_score is None:
            object.__setattr__(
                self, "predicted_score", self.predicted_makespan_s
            )


_REGISTRY: dict[str, Callable[..., ScheduleResult]] = {}


def register_scheduler(name: str):
    """Register an adapter under ``name`` (decorator).

    The adapter receives a :class:`~repro.core.context.SchedulingContext`
    plus the caller's extra keyword options and must return a
    :class:`ScheduleResult`.
    """

    def decorate(fn: Callable[..., ScheduleResult]):
        key = name.lower()
        if key in _REGISTRY:
            raise ValueError(f"scheduler {name!r} is already registered")
        _REGISTRY[key] = fn
        return fn

    return decorate


def scheduler_names() -> tuple[str, ...]:
    """The registered method names, sorted."""
    return tuple(sorted(_REGISTRY))


def _maybe_sanitize(ctx: SchedulingContext, result: ScheduleResult) -> None:
    """Verify the result's invariants when the sanitizer is armed.

    Raises :class:`~repro.errors.ScheduleInvariantError` (with the
    structured violation list) if the schedule breaks any Definition 2.1
    invariant.  Active under ``REPRO_SANITIZE=1`` or for contexts derived
    via :meth:`~repro.core.context.SchedulingContext.with_sanitizer`.
    """
    if ctx.sanitizing:
        from repro.analysis.invariants import check_schedule

        check_schedule(ctx, result.schedule, where=f"registry:{result.method}")


def _adapter(method: str) -> Callable[..., ScheduleResult]:
    """The adapter registered as ``method``; ``ValueError`` lists the known."""
    try:
        return _REGISTRY[method.lower()]
    except KeyError:
        known = ", ".join(scheduler_names())
        raise ValueError(f"unknown scheduler {method!r}; known: {known}") from None


def dispatch(ctx: SchedulingContext, method: str, /, **opts) -> ScheduleResult:
    """Run the registered ``method`` on an existing context.

    The one step every front door shares: look the adapter up, check the
    cap certificate (:func:`~repro.core.feasibility.require_cap_feasible`),
    call the adapter with the method options ``opts``, fill in what the
    adapter left out (a snapshot of the context's cache and the context's
    governor), then verify the result when the sanitizer is armed.  Builds
    no context.
    """
    adapter = _adapter(method)
    require_cap_feasible(ctx)
    result = adapter(ctx, **opts)
    if result.cache_stats is None or result.governor is None:
        result = replace(
            result,
            cache_stats=(
                result.cache_stats
                if result.cache_stats is not None
                else ctx.cache.snapshot()
            ),
            governor=result.governor if result.governor is not None else ctx.governor,
        )
    _maybe_sanitize(ctx, result)
    return result


def schedule(
    jobs: Sequence[Job],
    method: str = "hcs",
    *,
    cap_w: float | None = None,
    fleet=None,
    objective: Objective | str = Objective.MAKESPAN,
    predictor: CoRunPredictor | CachingPredictor | None = None,
    processor=None,
    cache: EvalCache | None = None,
    disk_cache=None,
    seed=None,
    governor=None,
    **opts,
) -> ScheduleResult:
    """Compute a co-schedule for ``jobs`` under ``cap_w`` with ``method``.

    Parameters common to every method:

    ``objective``
        What the method optimizes: ``"makespan"`` (default, Definition
        2.1), ``"energy"``, or ``"edp"`` — an
        :class:`~repro.objective.Objective` or its string value.
        Every registered method honors it: the context's governor picks
        objective-optimal frequencies and the evaluator scores candidates
        on the objective.
    ``predictor``
        A fitted :class:`~repro.model.predictor.CoRunPredictor` (or a
        caching wrapper).  Omit it to profile + characterize on the fly.
    ``processor``
        Hardware model used when building a predictor (default: the
        calibrated Ivy Bridge).  Ignored when ``predictor`` is given.
    ``cache`` / ``disk_cache``
        Shared :class:`~repro.perf.cache.EvalCache` and optional on-disk
        cache for the model-building stage.
    ``seed``
        Forwarded to stochastic methods (random, genetic, hcs+ refinement).
    ``governor``
        Override the cap-enforcing frequency policy (default: the
        objective's governor from
        :func:`~repro.core.objectives.governor_for`).  Under
        ``REPRO_SANITIZE=1`` the result is still verified against the cap,
        so a governor that ignores it is caught, not trusted.
        A caller's governor is honored through the scalar evaluator; the
        stock model is otherwise scored on precomputed tensors (see
        :mod:`repro.perf.tensor`).

    Remaining keyword options are method-specific and forwarded verbatim
    (e.g. ``threshold=`` for hcs, ``node_budget=`` for astar,
    ``config=`` for genetic).  Unknown methods raise ``ValueError`` listing
    the registry; unknown options raise ``TypeError`` from the adapter.
    """
    if not jobs:
        raise ValueError("cannot schedule an empty job set")
    _adapter(method)  # unknown methods fail before the model is built

    if fleet is not None and len(getattr(fleet, "nodes", ())) > 1:
        # A multi-node fleet: delegate to the placement driver, which runs
        # this same registry method per node.  Returns a
        # :class:`~repro.core.fleetsched.FleetScheduleResult`.
        from repro.core.fleetsched import fleet_schedule

        ctx = SchedulingContext.build(
            jobs,
            fleet=fleet,
            objective=objective,
            predictor=predictor,
            processor=processor,
            cache=cache,
            disk_cache=disk_cache,
            seed=seed,
            governor=governor,
        )
        return fleet_schedule(ctx, method=method, **opts)

    ctx = SchedulingContext.build(
        jobs,
        cap_w=cap_w,
        fleet=fleet,
        objective=objective,
        predictor=predictor,
        processor=processor,
        cache=cache,
        disk_cache=disk_cache,
        seed=seed,
        governor=governor,
    )
    return dispatch(ctx, method, **opts)


class Scheduler:
    """A reusable scheduling front end for repeated (online) calls.

    A long-running service consults a scheduler every time a processor
    goes idle, over an ever-changing pending set.  This holds what stays
    fixed across those calls — the caller's predictor, the method and its
    options — and builds one :class:`~repro.core.context.SchedulingContext`
    per call under the current cap (:meth:`set_cap` only records it), so
    the context resolves the governor, evaluator and tensor pipeline the
    same way :func:`schedule` does.

    Score memoization is segregated per cap value (the evaluator's keys
    carry the objective but no cap), so flipping between caps never serves
    stale scores and returning to a previous cap finds its cache warm.
    """

    def __init__(
        self,
        method: str = "hcs",
        *,
        cap_w: float,
        predictor: CoRunPredictor | CachingPredictor,
        objective: Objective | str = Objective.MAKESPAN,
        seed=None,
        node=None,
        **opts,
    ) -> None:
        _adapter(method)  # unknown methods fail on construction
        #: Optional fleet :class:`~repro.core.fleet.Node` this scheduler
        #: plans for: its speed/power scaling is applied to every context
        #: (``cap_w`` stays authoritative — the node's own cap is ignored).
        self.node = node
        self.method = method.lower()
        self.objective = Objective.coerce(objective)
        self.predictor = predictor
        self.seed = seed
        self.opts = opts
        self.cap_w = cap_w
        #: The cap-governor factory every context is built with.  A
        #: non-stock governor is honored through the scalar evaluator
        #: (``PairTables.build`` declines it).
        self.governor_factory = governor_for
        self._eval_caches: dict[float, EvalCache] = {}

    def set_cap(self, cap_w: float) -> None:
        """Change the power cap the next calls plan under."""
        self.cap_w = cap_w

    def context(self, jobs: Sequence[Job]) -> SchedulingContext:
        """The frozen context one call would run under."""
        fleet = None
        cap_w = self.cap_w
        if self.node is not None:
            from repro.core.fleet import Fleet

            # The context applies the node's scaling itself (and resolves
            # the alias cap from the node), so pass the fleet, not cap_w.
            fleet = Fleet(nodes=(replace(self.node, cap_w=self.cap_w),))
            cap_w = None
        return SchedulingContext(
            jobs=tuple(jobs),
            cap_w=cap_w,
            fleet=fleet,
            predictor=self.predictor,
            objective=self.objective,
            cache=self._eval_caches.setdefault(self.cap_w, EvalCache()),
            seed=self.seed,
            governor_factory=self.governor_factory,
        )

    def __call__(self, jobs: Sequence[Job], **opts) -> ScheduleResult:
        """Compute a co-schedule for ``jobs`` under the current cap.

        The result's ``cache_stats`` snapshot this cap's evaluator cache,
        as :func:`schedule` snapshots its call's context cache."""
        return dispatch(self.context(jobs), self.method, **{**self.opts, **opts})


def _result(
    ctx: SchedulingContext,
    method: str,
    sched: CoSchedule,
    score: float | None = None,
    **details,
) -> ScheduleResult:
    """Assemble a :class:`ScheduleResult` from an adapter's raw output.

    ``score`` is the predicted *objective* score when the adapter already
    computed it (it equals the makespan under the default objective);
    ``None`` asks the context's evaluator, which memoizes.  A plan scoring
    ``inf`` goes through :func:`~repro.core.feasibility.repair_schedule`.
    """
    if score is None:
        score = ctx.evaluator(sched)
    if math.isinf(score):
        sched = repair_schedule(ctx, sched)
        score = ctx.evaluator(sched)
    makespan = (
        score
        if ctx.objective is Objective.MAKESPAN
        else ctx.predicted_makespan(sched)
    )
    return ScheduleResult(
        method=method,
        schedule=sched,
        predicted_makespan_s=makespan,
        details=MappingProxyType(details),
        objective=ctx.objective,
        predicted_score=score,
        governor=ctx.governor,
    )


# ----------------------------------------------------------------------
# Built-in adapters
# ----------------------------------------------------------------------
@register_scheduler("hcs")
def _hcs_adapter(ctx: SchedulingContext, **opts) -> ScheduleResult:
    from repro.core.hcs import hcs_schedule

    res = hcs_schedule(ctx, refine=False, **opts)
    score = (
        res.predicted_makespan_s
        if ctx.objective is Objective.MAKESPAN
        else None
    )
    return _result(ctx, "hcs", res.schedule, score, hcs=res)


@register_scheduler("hcs+")
def _hcs_plus_adapter(ctx: SchedulingContext, **opts) -> ScheduleResult:
    from repro.core.hcs import hcs_schedule

    res = hcs_schedule(ctx, refine=True, **opts)
    score = (
        res.predicted_makespan_s
        if ctx.objective is Objective.MAKESPAN
        else None
    )
    return _result(ctx, "hcs+", res.schedule, score, hcs=res)


@register_scheduler("random")
def _random_adapter(ctx: SchedulingContext, **opts) -> ScheduleResult:
    sched = random_schedule(ctx, **opts)
    return _result(ctx, "random", sched)


@register_scheduler("default")
def _default_adapter(ctx: SchedulingContext, **opts) -> ScheduleResult:
    part = default_partition(ctx, **opts)
    sched = CoSchedule(
        cpu_queue=part.cpu_partition, gpu_queue=part.gpu_partition
    )
    return _result(ctx, "default", sched, partition=part)


@register_scheduler("brute")
def _brute_adapter(ctx: SchedulingContext, **opts) -> ScheduleResult:
    sched, score = brute_force_best(ctx.jobs, ctx.evaluator, **opts)
    return _result(ctx, "brute", sched, score)


@register_scheduler("astar")
def _astar_adapter(ctx: SchedulingContext, **opts) -> ScheduleResult:
    from repro.core.astar import astar_schedule

    sched, elapsed, expanded = astar_schedule(ctx, **opts)
    # A*'s g-cost is elapsed predicted time; under a non-makespan objective
    # the reported score is re-derived from the evaluator instead.
    score = elapsed if ctx.objective is Objective.MAKESPAN else None
    return _result(ctx, "astar", sched, score, nodes_expanded=expanded)


@register_scheduler("genetic")
def _genetic_adapter(ctx: SchedulingContext, **opts) -> ScheduleResult:
    from repro.core.genetic import genetic_schedule

    sched, score = genetic_schedule(ctx, **opts)
    return _result(ctx, "genetic", sched, score)


@register_scheduler("portfolio")
def _portfolio_adapter(ctx: SchedulingContext, **opts) -> ScheduleResult:
    from repro.core.portfolio import portfolio_schedule

    best, stats = portfolio_schedule(ctx, **opts)
    return ScheduleResult(
        method="portfolio",
        schedule=best.schedule,
        predicted_makespan_s=best.predicted_makespan_s,
        details=MappingProxyType({"winner": best.method, "members": stats}),
        objective=ctx.objective,
        predicted_score=best.predicted_score,
        governor=ctx.governor,
    )
