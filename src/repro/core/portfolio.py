"""Racing portfolio scheduler: try several registry methods, keep the best.

The registry methods trade quality for time very differently — ``hcs`` is
instant, ``hcs+`` adds cheap refinement, ``genetic`` searches (and on the
tensor backend, searches fast).  A portfolio races a configurable member
list under a shared wall-clock deadline and evaluation budget and returns
the best feasible schedule per the context objective, echoing the anytime
framing of Phan et al.'s GA co-scheduling (the paper's reference [23]) and
the multi-policy comparisons in "Co-Scheduling Algorithms for
High-Throughput Workload Execution".

Members run sequentially over the *same* context, so every later member
starts with the earlier members' evaluator cache warm — racing is additive
work, not repeated work.  The first member always runs (a portfolio always
returns a schedule when any member can produce one); before each further
member the elapsed time is checked against ``deadline_s`` and the
cumulative evaluation count against ``eval_budget``.  A member cannot
fail on the cap: :func:`~repro.core.api.dispatch` checks the cap
certificate before the race, and every member's plan comes back
feasible, so the winner is simply the best score.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from types import MappingProxyType

from repro.core.context import SchedulingContext

#: Default race: the instant heuristic, its refined variant, then the GA —
#: ordered cheapest-first so budget exhaustion degrades quality gracefully.
DEFAULT_MEMBERS = ("hcs", "hcs+", "genetic")


def _eval_count(ctx: SchedulingContext) -> float:
    """Evaluations charged so far: cache misses plus population lanes.

    Per-schedule evaluations all land as evaluator-cache misses (batched
    ``evaluate_all`` adjusts the miss count per schedule); population
    lanes scored by ``score_population`` never touch the cache, so the
    tensor backend's ``population_schedules`` counter is added on top.
    """
    snap = ctx.evaluator.snapshot()
    return float(
        snap.get("cache_misses", 0.0)
        + snap.get("tensor_population_schedules", 0.0)
    )


def portfolio_schedule(
    ctx: SchedulingContext,
    *,
    members: Sequence[str] = DEFAULT_MEMBERS,
    deadline_s: float | None = None,
    eval_budget: int | None = None,
    member_opts: dict[str, dict] | None = None,
):
    """Race ``members`` on ``ctx``; return ``(result, stats)``.

    ``result`` is the winning member's raw
    :class:`~repro.core.api.ScheduleResult` (best ``predicted_score``,
    strict ``<`` so earlier members win ties); ``stats`` maps each member
    name to ``{score, makespan_s, wall_s, evals}``, or to ``skipped`` for
    members the deadline or evaluation budget cut off.  ``member_opts``
    forwards method-specific keyword options to named members.
    """
    from repro.core.api import _adapter, scheduler_names

    if not members:
        raise ValueError("portfolio needs at least one member method")
    adapters = {}
    for name in members:
        key = name.lower()
        if key == "portfolio":
            raise ValueError("a portfolio cannot race itself")
        try:
            adapters[key] = _adapter(key)
        except ValueError:
            known = ", ".join(n for n in scheduler_names() if n != "portfolio")
            raise ValueError(
                f"unknown portfolio member {name!r}; known: {known}"
            ) from None
    if deadline_s is not None and deadline_s <= 0:
        raise ValueError("deadline_s must be positive")
    if eval_budget is not None and eval_budget <= 0:
        raise ValueError("eval_budget must be positive")

    opts = member_opts or {}
    start = time.perf_counter()
    evals0 = _eval_count(ctx)
    stats: dict[str, dict] = {}
    best = None
    winner = ""
    for pos, (key, adapter) in enumerate(adapters.items()):
        elapsed = time.perf_counter() - start
        spent = _eval_count(ctx) - evals0
        if pos > 0 and deadline_s is not None and elapsed >= deadline_s:
            stats[key] = {"skipped": "deadline", "wall_s": elapsed}
            continue
        if pos > 0 and eval_budget is not None and spent >= eval_budget:
            stats[key] = {"skipped": "eval_budget", "evals": spent}
            continue
        t0 = time.perf_counter()
        result = adapter(ctx, **opts.get(key, {}))
        stats[key] = {
            "score": float(result.predicted_score),
            "makespan_s": float(result.predicted_makespan_s),
            "wall_s": time.perf_counter() - t0,
            "evals": _eval_count(ctx) - evals0 - spent,
        }
        if best is None or result.predicted_score < best.predicted_score:
            best = result
            winner = key
    stats[winner]["winner"] = True
    return best, MappingProxyType(stats)
