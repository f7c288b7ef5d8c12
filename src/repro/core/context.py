"""The shared scheduling context: one bundle, every scheduler.

Before this module each scheduler entry point re-plumbed its own
``(predictor, jobs, cap_w, seed, evaluator, ...)`` signature and
re-built its own governor.  A :class:`SchedulingContext` freezes that whole
bundle once — jobs, predictor, cap, :class:`~repro.objective.Objective`,
governor (via a pluggable factory), memoized evaluator, eval cache, and
seed — and every scheduler in the registry plus ``refine``,
``online``, ``bounds``, and ``baselines`` takes it as its first argument::

    ctx = SchedulingContext.build(jobs, cap_w=15.0, objective="energy")
    hcs = hcs_schedule(ctx, refine=True)
    ga = genetic_schedule(ctx)              # same model, governor, cache
    bound, _ = lower_bound(ctx)

The objective travels inside the context: the governor factory resolves a
makespan context to the paper's :class:`~repro.core.freqpolicy.ModelGovernor`
and an energy/EDP context to the
:class:`~repro.core.objectives.EnergyAwareGovernor`, and the evaluator's
cache keys are tagged with the objective so scores can never leak between
objectives sharing one cache.

A seed, an objective or an evaluator is part of the context, not an
option of the scheduler: derive ``ctx.with_seed(7)`` or
``ctx.with_objective("edp")``, or construct
``SchedulingContext(jobs=..., cap_w=..., predictor=..., evaluator=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Callable, Sequence

import numpy as np

from repro.workload.program import Job
from repro.core.objectives import governor_for
from repro.objective import Objective
from repro.perf.cache import EvalCache
from repro.perf.evaluator import CachingPredictor, ScheduleEvaluator
from repro.util.rng import default_rng


@dataclass(frozen=True)
class SchedulingContext:
    """Frozen bundle of everything a scheduler needs for one problem.

    Only ``jobs``, ``cap_w``, and ``predictor`` are required; the governor,
    evaluator, and cache are resolved consistently on construction (the
    governor from ``governor_factory`` and the objective, the evaluator
    bound to that governor with objective-tagged cache keys).
    Stochastic schedulers draw their randomness from :meth:`rng`, so two
    contexts with equal seeds replay identically.
    """

    jobs: tuple[Job, ...]
    #: Deprecated alias for a one-node fleet's cap: readable for
    #: compatibility (it always equals the single node's resolved cap) but
    #: new code goes through :func:`repro.core.feasibility.context_cap` or
    #: :attr:`fleet`.  ``None`` on multi-node contexts, which have no
    #: single cap.
    cap_w: float | None = None
    predictor: object = None
    objective: Objective = Objective.MAKESPAN
    governor: object | None = None
    evaluator: ScheduleEvaluator | None = None
    cache: EvalCache | None = None
    seed: int | np.random.Generator | None = None
    governor_factory: Callable[..., object] = governor_for
    sanitize: bool = False
    #: The machines this context schedules onto.  ``None`` coerces to
    #: ``Fleet.single(cap_w)`` — the classic one-APU world, byte-identical
    #: to the pre-fleet scalar path.  Multi-node contexts carry no single
    #: governor/evaluator; the fleet driver derives per-node sub-contexts.
    fleet: object | None = None

    def __post_init__(self) -> None:
        from repro.core.fleet import Fleet, NodePredictor, node_predictor

        if not self.jobs:
            raise ValueError("cannot schedule an empty job set")
        if self.predictor is None:
            raise ValueError(
                "a context needs a predictor (use SchedulingContext.build "
                "to resolve one from the workload)"
            )
        set_ = object.__setattr__
        set_(self, "jobs", tuple(self.jobs))
        set_(self, "objective", Objective.coerce(self.objective))
        if self.fleet is None:
            if self.cap_w is None:
                raise ValueError("a context needs cap_w or a fleet")
            set_(self, "fleet", Fleet.single(self.cap_w))
        else:
            if isinstance(self.fleet, dict):
                set_(self, "fleet", Fleet.from_dict(self.fleet))
            if len(self.fleet.nodes) > 1:
                if self.cap_w is not None:
                    raise ValueError(
                        "cap_w has no meaning on a multi-node fleet; give "
                        "per-node caps or a shared budget on the Fleet"
                    )
            else:
                cap = self.fleet.node_caps()[0]
                if self.cap_w is not None and self.cap_w != cap:
                    raise ValueError(
                        f"cap_w={self.cap_w} conflicts with the single "
                        f"node's resolved cap {cap}"
                    )
                set_(self, "cap_w", cap)
                node = self.fleet.nodes[0]
                # ``replace`` re-runs this with an already node-scaled
                # predictor: keep it if it is scaled for this node, else
                # drop the stale node view and rescale — never scale
                # twice.  A trivial node scales nothing.
                scaled = self.predictor
                current = scaled.node if isinstance(scaled, NodePredictor) else None
                if not node.trivial and current != node:
                    base = scaled.inner if current is not None else scaled
                    set_(self, "predictor", node_predictor(base, node))
        if len(self.fleet.nodes) > 1:
            # A multi-node context is a placement problem, not a single
            # replay: it resolves no governor/evaluator (the fleet driver
            # derives per-node sub-contexts that do), only the shared
            # cache below.
            if self.cache is None:
                set_(self, "cache", EvalCache())
            return
        if self.cache is None:
            set_(
                self,
                "cache",
                self.evaluator.cache if self.evaluator is not None else EvalCache(),
            )
        if self.governor is None and self.evaluator is None:
            # Tensor pipeline: precompute (memoized by profile content),
            # reduce the governor's choices into replay tables and attach
            # both to the governor (:attr:`tensor` reads them back), and
            # replay over the tables in the batch evaluator.  A governor or
            # evaluator the caller passed in, a governor the tables cannot
            # reduce, and any model that cannot be tensorized exactly run
            # the scalar stack below instead.
            from repro.perf.tensor import BatchScheduleEvaluator, PairTables, tensorize

            tensor = tensorize(self.predictor, [j.uid for j in self.jobs])
            if tensor is not None:
                governor = self.governor_factory(
                    self.predictor, self.cap_w, self.objective
                )
                set_(self, "governor", governor)
                tables = PairTables.attach(governor, tensor)
                if tables is not None:
                    set_(
                        self,
                        "evaluator",
                        BatchScheduleEvaluator(
                            self.predictor,
                            governor,
                            cache=self.cache,
                            objective=self.objective,
                            tensor=tensor,
                            tables=tables,
                        ),
                    )
        if self.governor is None:
            governor = (
                self.evaluator.governor
                if self.evaluator is not None
                else self.governor_factory(self.predictor, self.cap_w, self.objective)
            )
            set_(self, "governor", governor)
        if self.evaluator is None:
            set_(
                self,
                "evaluator",
                ScheduleEvaluator(
                    self.predictor,
                    self.governor,
                    cache=self.cache,
                    objective=self.objective,
                ),
            )
        elif self.evaluator.objective is not self.objective:
            raise ValueError(
                f"evaluator scores {self.evaluator.objective.value!r} but the "
                f"context objective is {self.objective.value!r}"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        jobs: Sequence[Job],
        *,
        cap_w: float | None = None,
        fleet=None,
        objective: Objective | str = Objective.MAKESPAN,
        predictor=None,
        processor=None,
        cache: EvalCache | None = None,
        disk_cache=None,
        seed=None,
        governor=None,
        governor_factory: Callable[..., object] | None = None,
    ) -> "SchedulingContext":
        """Resolve a full context, building the model on the fly if needed.

        When ``predictor`` is omitted, the workload is profiled and the
        degradation space characterized (optionally persisted via
        ``disk_cache``) — the same behavior the ``schedule()`` facade always
        had.  A bare predictor answers through the context's cache.
        """
        from repro.core.fleet import NodePredictor

        if not jobs:
            raise ValueError("cannot schedule an empty job set")
        shared_cache = cache if cache is not None else EvalCache()
        if predictor is None:
            predictor = build_predictor(
                jobs,
                processor=processor,
                cache=shared_cache,
                disk_cache=disk_cache,
            )
        elif not isinstance(predictor, (CachingPredictor, NodePredictor)):
            predictor = CachingPredictor(predictor, cache=shared_cache)
        return cls(
            jobs=tuple(jobs),
            cap_w=cap_w,
            predictor=predictor,
            objective=objective,
            governor=governor,
            cache=shared_cache,
            seed=seed,
            governor_factory=(
                governor_factory if governor_factory is not None else governor_for
            ),
            fleet=fleet,
        )

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_jobs(self, jobs: Sequence[Job]) -> "SchedulingContext":
        """Same model and policies over a different job set."""
        return replace(self, jobs=tuple(jobs))

    def with_seed(self, seed) -> "SchedulingContext":
        """Same context with a different random seed."""
        return replace(self, seed=seed)

    def with_objective(self, objective: Objective | str) -> "SchedulingContext":
        """Re-target the objective; governor and evaluator are rebuilt.

        The eval cache is shared — objective-tagged keys keep the scores
        apart — so model queries stay warm across objectives.
        """
        return self._rebuilt(objective=objective, cache=self.cache)

    def with_sanitizer(self, enabled: bool = True) -> "SchedulingContext":
        """Same context with the invariant sanitizer armed (or disarmed).

        A sanitizing context makes every registry scheduler, refinement
        pass, and service batch verify its output against the paper's
        Definition 2.1 invariants (see :mod:`repro.analysis.invariants`),
        raising :class:`~repro.errors.ScheduleInvariantError` on violation.
        ``REPRO_SANITIZE=1`` in the environment arms every context at once.
        """
        return replace(self, sanitize=enabled)

    @property
    def sanitizing(self) -> bool:
        """Is invariant verification active for this context?"""
        if self.sanitize:
            return True
        from repro.analysis.invariants import env_sanitizer_enabled

        return env_sanitizer_enabled()

    def with_cap(self, cap_w: float) -> "SchedulingContext":
        """Re-target the power cap; governor and evaluator are rebuilt.

        The evaluator gets a *fresh* cache: schedule-score keys carry no
        cap, so sharing one across caps would serve stale scores.  The
        single node keeps its identity (name and scaling) under the new
        cap; re-cap a multi-node context with :meth:`with_fleet`.
        """
        from repro.core.fleet import Fleet

        if len(self.fleet.nodes) > 1:
            raise ValueError(
                "a multi-node context has no single cap; use with_fleet()"
            )
        node = replace(self.fleet.nodes[0], cap_w=cap_w)
        return self._rebuilt(fleet=Fleet(nodes=(node,)))

    def with_fleet(self, fleet) -> "SchedulingContext":
        """Same problem over a different fleet.

        Governor and evaluator are rebuilt and the eval cache starts fresh
        (schedule-score keys carry no node or cap identity).
        """
        return self._rebuilt(fleet=fleet)

    def _rebuilt(self, **changes) -> "SchedulingContext":
        """A new context over this one's unscaled model, with ``changes``.

        Governor, evaluator, tensor model and the node view of the
        predictor are resolved afresh; the eval cache is fresh unless ``changes`` passes
        one.  The fleet carries the cap, so ``cap_w`` is never copied.
        """
        fields = dict(
            jobs=self.jobs,
            predictor=self.base_predictor,
            objective=self.objective,
            seed=self.seed,
            governor_factory=self.governor_factory,
            sanitize=self.sanitize,
            fleet=self.fleet,
        )
        fields.update(changes)
        return SchedulingContext(**fields)

    # ------------------------------------------------------------------
    # Fleet plumbing
    # ------------------------------------------------------------------
    @property
    def base_predictor(self):
        """The predictor without this context's node view.

        That is the model the context was given: derivations rebuild their
        views from it, so no derived context ever scales a node twice.
        """
        from repro.core.fleet import NodePredictor

        predictor = self.predictor
        if (
            isinstance(predictor, NodePredictor)
            and len(self.fleet.nodes) == 1
            and predictor.node == self.fleet.nodes[0]
        ):
            predictor = predictor.inner
        return predictor

    def node_context(self, index: int, jobs: Sequence[Job] | None = None):
        """A single-node sub-context for ``fleet.nodes[index]``.

        The sub-context carries that node (with its resolved cap made
        explicit) as a one-node fleet, the *unscaled* base predictor (the
        sub-context's own construction applies the node scaling), a fresh
        eval cache — schedule keys carry no node identity, so sharing the
        parent's would leak scores across nodes — and a per-node seed
        derived from the context seed so stochastic schedulers diverge
        between nodes but replay identically run-to-run.
        """
        from repro.core.fleet import Fleet

        node = replace(self.fleet.nodes[index], cap_w=self.fleet.node_caps()[index])
        seed = self.seed
        if isinstance(seed, (int, np.integer)):
            seed = int(seed) + 1_000_003 * index
        return self._rebuilt(
            jobs=tuple(jobs) if jobs is not None else self.jobs,
            seed=seed,
            fleet=Fleet(nodes=(node,)),
        )

    # ------------------------------------------------------------------
    # Shared services
    # ------------------------------------------------------------------
    @property
    def tensor(self):
        """The indexed :class:`~repro.perf.tensor.TensorModel` of this
        context's model, or ``None`` on the scalar stack.

        It travels with the governor the context built
        (:meth:`~repro.perf.tensor.PairTables.attach`), so derived contexts
        that keep the governor keep it too; ``tensor.index`` maps uids to
        rows and may not cover every job of a :meth:`with_jobs` context.
        A governor over another predictor does not vouch for this one's
        model and reads ``None``.
        """
        from repro.perf.tensor import PairTables

        served = PairTables.serving(self.governor)
        if served is None or self.governor.predictor is not self.predictor:
            return None
        return served[1]

    @property
    def processor(self):
        """The ground-truth machine the predictor was built against."""
        return self.predictor.processor

    def simulate(
        self,
        scenario,
        *,
        policy=None,
        governor=None,
        record_events: bool = False,
    ):
        """Execute a :class:`~repro.engine.sim.Scenario` on this context.

        Plumbs the context into the unified engine entry point: the
        processor comes from the predictor, the governor defaults to the
        context's, the result is labelled with the context's objective,
        and the invariant verifier referees it when the context
        sanitizes.  Returns an :class:`~repro.engine.sim.ExecutionResult`.
        """
        from repro.engine.sim import run as engine_run

        return engine_run(
            self,
            scenario,
            policy=policy,
            governor=governor,
            record_events=record_events,
        )

    def rng(self) -> np.random.Generator:
        """A generator seeded from the context (fresh on every call)."""
        return default_rng(self.seed)

    def score(self, schedule) -> float:
        """Predicted objective score of a schedule (memoized)."""
        return self.evaluator(schedule)

    def predicted_makespan(self, schedule) -> float:
        """Predicted makespan regardless of the objective (memoized)."""
        return self.evaluator.makespan_of(schedule)

    def metrics(self, schedule):
        """Predicted makespan+energy metrics of a schedule (memoized)."""
        return self.evaluator.metrics(schedule)

    def perf_stats(self) -> dict[str, float]:
        """Shared eval-cache counters."""
        return self.cache.snapshot()


def build_predictor(
    jobs: Sequence[Job],
    *,
    processor=None,
    space=None,
    cache: EvalCache,
    disk_cache=None,
) -> CachingPredictor:
    """Profile ``jobs``, characterize the degradation space, build the model.

    The model-building step of the paper's runtime, shared by
    :meth:`SchedulingContext.build` and
    :class:`~repro.core.runtime.CoScheduleRuntime`: ``processor``
    defaults to the calibrated Ivy Bridge, an injected ``space`` skips
    characterization, both stages persist via ``disk_cache``, and the
    predictor answers through ``cache``.
    """
    from repro.model.characterize import characterize_space
    from repro.model.predictor import CoRunPredictor
    from repro.model.profiler import profile_workload
    from repro.perf.diskcache import resolve_disk_cache

    if processor is None:
        from repro.hardware.calibration import make_ivy_bridge

        processor = make_ivy_bridge()
    disk = resolve_disk_cache(disk_cache)
    table = profile_workload(processor, jobs, disk_cache=disk)
    if space is None:
        space = characterize_space(processor, disk_cache=disk)
    return CachingPredictor(CoRunPredictor(processor, table, space), cache=cache)

