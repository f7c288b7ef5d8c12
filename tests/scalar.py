"""The scalar reference stack, reached the way the library reaches it.

A context chooses its evaluation path itself: the stock model is served
from precomputed tensors, while a governor or evaluator the caller passes
in (like a non-stock predictor or governor factory) keeps the plain
per-query scalar stack.  Equivalence tests, the backend benchmark and the
golden generators use that route to build the scalar referee of a
context::

    ctx = SchedulingContext.build(jobs, cap_w=15.0, predictor=predictor)
    ref = scalar_context(ctx)        # same problem, no tensor model
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.context import SchedulingContext


def scalar_context(ctx: SchedulingContext) -> SchedulingContext:
    """``ctx`` on the scalar stack: same jobs, node, objective, seed, cache.

    The predictor (with any node scaling) is kept, and the governor is
    built afresh from ``ctx.governor_factory`` with no tensor model
    attached; a context given its own governor skips the tensor pipeline,
    so the evaluator is a plain
    :class:`~repro.perf.evaluator.ScheduleEvaluator`.
    """
    return replace(
        ctx,
        governor=ctx.governor_factory(ctx.predictor, ctx.cap_w, ctx.objective),
        evaluator=None,
    )
