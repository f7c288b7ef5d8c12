"""Operational metrics of the co-scheduling daemon.

Counters (monotonic) and gauges (sampled at snapshot time), plus streaming
turnaround percentiles over a *bounded* reservoir — a daemon that has
served ten million jobs must not hold ten million floats.  The snapshot
merges the perf layer's :class:`~repro.perf.cache.EvalCache` counters so
one scrape shows both service health (queue depth, rejections, cap
violations) and evaluation efficiency (cache hit rate) — the service's
hot path is predictor queries, so the hit rate is the single best "are we
re-deriving work?" signal.

Sharded daemons scrape every shard and fold the dicts with
:func:`merge_snapshots`: counters sum, clocks take the max, and the
percentile keys report the worst shard (a max of per-shard percentiles is
a conservative upper bound; exact cross-shard percentiles would need the
raw reservoirs on the wire).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.rng import default_rng

#: Reservoir size: large enough for stable p99 estimates (the p99 of 4k
#: uniform samples has ~0.16% rank error), small enough to be free.
RESERVOIR_SIZE = 4096


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 100]) of an unsorted list."""
    if not values:
        return 0.0
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile must be within [0, 100]")
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(p / 100.0 * len(ordered)) - 1))
    return ordered[rank]


class Reservoir:
    """Bounded uniform sample of a stream (Vitter's Algorithm R).

    Every observation ever seen has probability ``capacity / count`` of
    being in the sample, so percentiles over :meth:`values` estimate the
    whole stream, not just a recent window — and memory stays O(capacity)
    forever.  Seeded through :func:`repro.util.rng.default_rng` so two
    daemons fed the same stream report the same percentiles.
    """

    def __init__(self, capacity: int = RESERVOIR_SIZE, seed=None) -> None:
        if capacity < 1:
            raise ValueError("reservoir capacity must be >= 1")
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self._values: list[float] = []
        self._rng = default_rng(seed)

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if len(self._values) < self.capacity:
            self._values.append(value)
            return
        slot = int(self._rng.integers(0, self.count))
        if slot < self.capacity:
            self._values[slot] = value

    def values(self) -> list[float]:
        return list(self._values)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __len__(self) -> int:
        return len(self._values)


@dataclass
class ServiceMetrics:
    """Counters, gauges, and latency aggregates of one daemon instance."""

    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    rejected_backpressure: int = 0
    rejected_infeasible: int = 0
    rejected_invalid: int = 0
    rejected_late: int = 0
    rejected_objective: int = 0
    rejected_quota: int = 0
    deduplicated: int = 0
    cap_events: int = 0
    cap_violations: int = 0
    requests: int = 0
    protocol_errors: int = 0
    turnarounds_s: Reservoir = field(default_factory=Reservoir)
    #: per-objective accounting over completed jobs: busy seconds and the
    #: start-power × wall-time energy estimate (J)
    busy_s: float = 0.0
    energy_est_j: float = 0.0

    @property
    def rejected(self) -> int:
        return (
            self.rejected_backpressure
            + self.rejected_infeasible
            + self.rejected_invalid
            + self.rejected_late
            + self.rejected_objective
            + self.rejected_quota
        )

    def observe_turnaround(self, seconds: float) -> None:
        self.turnarounds_s.add(seconds)

    def observe_completion(
        self, *, turnaround_s: float, duration_s: float, energy_est_j: float
    ) -> None:
        """Fold one finished job into the latency and objective aggregates."""
        self.observe_turnaround(turnaround_s)
        self.busy_s += duration_s
        self.energy_est_j += energy_est_j

    def snapshot(
        self,
        *,
        queue_depth: int,
        running: int,
        now_s: float,
        cap_w: float,
        cache: dict[str, float] | None = None,
        headroom: float | None = None,
        extra: dict[str, float] | None = None,
    ) -> dict[str, float]:
        """One flat scrape of every counter, gauge, and percentile.

        ``headroom`` is the admission controller's remaining queue budget
        (capacity minus depth); ``extra`` folds in caller gauges such as
        per-tenant queue depths or shard counts.
        """
        sample = self.turnarounds_s.values()
        out: dict[str, float] = {
            "submitted": float(self.submitted),
            "admitted": float(self.admitted),
            "completed": float(self.completed),
            "rejected": float(self.rejected),
            "rejected_backpressure": float(self.rejected_backpressure),
            "rejected_infeasible": float(self.rejected_infeasible),
            "rejected_invalid": float(self.rejected_invalid),
            "rejected_late": float(self.rejected_late),
            "rejected_objective": float(self.rejected_objective),
            "rejected_quota": float(self.rejected_quota),
            "deduplicated": float(self.deduplicated),
            "cap_events": float(self.cap_events),
            "cap_violations": float(self.cap_violations),
            "requests": float(self.requests),
            "protocol_errors": float(self.protocol_errors),
            "queue_depth": float(queue_depth),
            "running": float(running),
            "now_s": float(now_s),
            "cap_w": float(cap_w),
            "turnaround_p50_s": percentile(sample, 50.0),
            "turnaround_p90_s": percentile(sample, 90.0),
            "turnaround_p99_s": percentile(sample, 99.0),
            "turnaround_mean_s": self.turnarounds_s.mean,
            "turnaround_count": float(self.turnarounds_s.count),
            # Per-objective views of the same completed work: wall-clock
            # progress (makespan), estimated joules (energy), and their
            # product (edp) — whichever the daemon optimizes, all three
            # are scraped so experiments can compare objectives.
            "objective_makespan_s": float(now_s),
            "objective_energy_est_j": float(self.energy_est_j),
            "objective_edp_est_js": float(now_s) * float(self.energy_est_j),
            "busy_s": float(self.busy_s),
        }
        if headroom is not None:
            out["queue_headroom"] = float(headroom)
        if cache is not None:
            out.update(cache)
        if extra is not None:
            out.update(extra)
        return out


#: Snapshot keys folded by max (clocks, per-shard percentile bounds).
_MERGE_MAX = frozenset({
    "now_s",
    "turnaround_p50_s",
    "turnaround_p90_s",
    "turnaround_p99_s",
    "objective_makespan_s",
})
#: Snapshot keys where every shard reports the same configured value.
_MERGE_FIRST = frozenset({"cap_w"})


def merge_snapshots(snapshots: list[dict[str, float]]) -> dict[str, float]:
    """Fold per-shard metric scrapes into one daemon-level scrape.

    Counters and gauges sum across shards; clocks and percentile keys take
    the per-shard max (each shard owns an independent virtual timeline, so
    the slowest shard bounds the fleet); ratios and means are re-derived
    from the merged numerators/denominators.
    """
    if not snapshots:
        return {}
    if len(snapshots) == 1:
        return dict(snapshots[0])
    out: dict[str, float] = {}
    for snap in snapshots:
        for key, value in snap.items():
            if key in _MERGE_FIRST:
                out.setdefault(key, value)
            elif key in _MERGE_MAX:
                out[key] = max(out.get(key, value), value)
            else:
                out[key] = out.get(key, 0.0) + value
    count = out.get("turnaround_count", 0.0)
    if count > 0:
        out["turnaround_mean_s"] = sum(
            s.get("turnaround_mean_s", 0.0) * s.get("turnaround_count", 0.0)
            for s in snapshots
        ) / count
    derive_hit_rate(out)
    out["objective_edp_est_js"] = (
        out.get("objective_makespan_s", 0.0)
        * out.get("objective_energy_est_j", 0.0)
    )
    return out


def derive_hit_rate(out: dict[str, float]) -> None:
    """Re-derive ``cache_hit_rate`` from summed hit and miss counters.

    Rates do not add: a merged scrape must divide the summed counters.
    """
    hits = out.get("cache_hits", 0.0)
    misses = out.get("cache_misses", 0.0)
    if hits or misses:
        out["cache_hit_rate"] = hits / (hits + misses)
