"""Content-hashed memoization for the evaluation hot paths.

Two pieces:

* :func:`fingerprint` — a stable content hash over the value-object graphs
  the library is built from (frozen dataclasses, numpy arrays, enums, plain
  containers).  Equal content yields equal keys across processes and across
  interpreter runs, which is what the on-disk cache needs.
* :class:`EvalCache` — a keyed memo store with hit/miss instrumentation,
  shared by the caching predictor, the schedule evaluator, and the
  characterization/profiling entry points.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from dataclasses import dataclass
from collections.abc import Callable, Hashable

import numpy as np


def _canonical(obj):
    """Recursively reduce ``obj`` to a deterministic, repr-stable form."""
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, enum.Enum):
        return (type(obj).__name__, obj.name)
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        return ("ndarray", str(arr.dtype), arr.shape, arr.tobytes())
    if isinstance(obj, np.generic):
        return _canonical(obj.item())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            type(obj).__name__,
            tuple(
                (f.name, _canonical(getattr(obj, f.name)))
                for f in dataclasses.fields(obj)
            ),
        )
    if isinstance(obj, (tuple, list)):
        return ("seq", tuple(_canonical(x) for x in obj))
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(repr(_canonical(x)) for x in obj)))
    if isinstance(obj, dict):
        return (
            "map",
            tuple(
                sorted(
                    (repr(_canonical(k)), _canonical(v)) for k, v in obj.items()
                )
            ),
        )
    raise TypeError(
        f"cannot fingerprint {type(obj).__name__}: not a value object"
    )


def fingerprint(*objs) -> str:
    """SHA-256 content hash of a tuple of value objects (hex digest)."""
    canon = tuple(_canonical(o) for o in objs)
    return hashlib.sha256(repr(canon).encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/evaluation counters of one cache."""

    hits: int = 0
    misses: int = 0

    @property
    def evaluations(self) -> int:
        """Underlying computations actually performed (== misses)."""
        return self.misses

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.requests
        return self.hits / total if total else 0.0


class EvalCache:
    """A keyed memo store with instrumentation.

    Keys are arbitrary hashable tuples; callers namespace their keys with a
    leading tag (``("deg", ...)``, ``("makespan", ...)``) so one cache can
    safely be shared across the predictor and the schedule evaluator.  The
    optional ``maxsize`` bounds memory with FIFO eviction.
    """

    def __init__(self, maxsize: int | None = None) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be positive (or None)")
        self.maxsize = maxsize
        self._data: dict[Hashable, object] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._data.clear()
        self.stats = CacheStats()

    def prime(self, key: Hashable, value) -> None:
        """Insert a value computed elsewhere (e.g. by a batch replay)."""
        self._data[key] = value
        self._evict()

    def get_or_compute(self, key: Hashable, compute: Callable[[], object]):
        try:
            value = self._data[key]
        except KeyError:
            self.stats.misses += 1
            value = compute()
            self._data[key] = value
            self._evict()
            return value
        self.stats.hits += 1
        return value

    def _evict(self) -> None:
        if self.maxsize is None:
            return
        while len(self._data) > self.maxsize:
            self._data.pop(next(iter(self._data)))

    def snapshot(self) -> dict[str, float]:
        """Counters as a plain dict (for ``ScheduleOutcome`` / renderings)."""
        return {
            "cache_hits": float(self.stats.hits),
            "cache_misses": float(self.stats.misses),
            "cache_entries": float(len(self._data)),
            "cache_hit_rate": self.stats.hit_rate,
        }


def ensure_cache(cache: EvalCache | None) -> EvalCache:
    """Coerce ``cache=None`` to a fresh private cache."""
    return cache if cache is not None else EvalCache()
