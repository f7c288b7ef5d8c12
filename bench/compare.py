"""``python -m bench compare A.json B.json``: parent runs against change runs.

``A`` and ``B`` are ``--out`` files of ``python -m bench run`` (use
``--runs N`` for several runs per workload; run both sides on the same
seeds).  For every workload and end-to-end metric it prints each side's
median and quartiles and one verdict, following the choosing-metrics
guide's rules for a small sandbox:

``better``
    B won at least nine tenths of the run pairs (ties count for neither)
    and the medians differ by more than A's interquartile range.
``worse``
    B's median is worse than A's by more than the metric's bound.
``unresolved``
    A side's run-to-run spread (IQR / median) exceeds the bound, so the
    bound cannot be resolved — unless every B run beats every A run.
``within-bound``
    None of the above.

Deterministic diagnostics (simulated speedup, model error, overshoot,
virtual turnaround, ...) are compared run by run on matching seeds and
must be identical (relative 1e-9).  The exit code is 1 when any pair is
``worse`` or ``unresolved``, when a deterministic diagnostic changed, or
when a workload has no seed run on both sides.
"""

from __future__ import annotations

import argparse
import json
import math

from bench import spec as specs
from bench.stats import quartiles

#: Diagnostics that are simulated or counted, never timed: equal seeds
#: must give equal values on one commit.
DETERMINISTIC = (
    "speedup_vs_random",
    "model_error_pct",
    "cap_overshoot_w",
    "turnaround_p50_s",
    "turnaround_p99_s",
    "service.queue_depth_max",
    "store.events_appended",
)


def _runs(path: str) -> dict[str, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    by_workload: dict[str, list[dict]] = {}
    for run in runs:
        if not run["trace"]:
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, dict]:
    """Classify B against A for one metric (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    spread_a = (a3 - a1) / am
    spread_b = (b3 - b1) / bm
    worse_by = sign * (bm - am) / am
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    pairs = min(len(a), len(b))
    stats = {
        "a_median": am, "a_q1": a1, "a_q3": a3,
        "b_median": bm, "b_q1": b1, "b_q3": b3,
        "spread_a": spread_a, "spread_b": spread_b, "worse_by": worse_by,
        "wins": wins, "pairs": pairs,
    }
    dominates = max(sign * y for y in b) < min(sign * x for x in a)
    gain = wins >= 0.9 * pairs and abs(bm - am) > a3 - a1 and worse_by < 0
    if gain and (dominates or max(spread_a, spread_b) <= bound):
        return "better", stats
    if max(spread_a, spread_b) > bound and not dominates:
        return "unresolved", stats
    if worse_by > bound:
        return "worse", stats
    return "within-bound", stats


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare")
    parser.add_argument("parent", help="--out file of the parent commit")
    parser.add_argument("change", help="--out file of the change")
    args = parser.parse_args(argv)
    spec = specs.load()
    side_a, side_b = _runs(args.parent), _runs(args.change)
    failing = 0
    for workload in [w for w in specs.workload_names(spec) if w in side_a]:
        runs_a, runs_b = side_a[workload], side_b.get(workload, [])
        if not runs_b:
            print(f"== {workload}: no runs in {args.change}")
            failing += 1
            continue
        print(f"== {workload} ({len(runs_a)} parent runs, {len(runs_b)} change runs)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["end_to_end"][name] for r in runs_a]
            b = [r["end_to_end"][name] for r in runs_b]
            flag, s = verdict(a, b, metric["better"], metric["bound"])
            failing += flag in ("worse", "unresolved")
            print(
                f"  {name:<16} {flag:<13} parent {s['a_median']:.6g} "
                f"[{s['a_q1']:.6g}, {s['a_q3']:.6g}]  change {s['b_median']:.6g} "
                f"[{s['b_q1']:.6g}, {s['b_q3']:.6g}] {metric['unit']}  "
                f"worse by {100 * s['worse_by']:+.1f}% (bound "
                f"{100 * metric['bound']:.0f}%), spreads "
                f"{100 * s['spread_a']:.1f}%/{100 * s['spread_b']:.1f}%, "
                f"change won {s['wins']}/{s['pairs']} pairs"
            )
        changed = []
        seeds_b = {r["seed"]: r for r in runs_b}
        matched = [(r, seeds_b[r["seed"]]) for r in runs_a if r["seed"] in seeds_b]
        for ra, rb in matched:
            for name in DETERMINISTIC:
                va, vb = ra["diagnostics"].get(name), rb["diagnostics"].get(name)
                if va is None and vb is None:
                    continue
                if va is None or vb is None or not math.isclose(va, vb, rel_tol=1e-9):
                    changed.append(f"{name}@seed{ra['seed']}: {va} -> {vb}")
        failing += len(changed) + (not matched)
        if not matched:
            print("  deterministic diagnostics unchecked: no seed runs on both sides")
        elif changed:
            print("  deterministic diagnostics changed: " + "; ".join(changed))
        else:
            print(f"  deterministic diagnostics identical on {len(matched)} seed pairs")
    return 1 if failing else 0
