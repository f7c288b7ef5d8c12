"""The benchmark's workloads and the bookkeeping they share.

A workload builds all of its inputs from the seed in its constructor (that
is set-up), then hands the runner a fixed list of *units*: one pass over
the list is the workload's fixed composition of work, and the runner
repeats whole passes until the run's time is up.  A unit times its operations
through a :class:`Recorder` and checks its outputs outside the timed
region.  The first execution of a unit verifies its outputs in full; every
later execution must reproduce them exactly, so each output is verified
once and checked for determinism on every repeat.
"""

from __future__ import annotations

import sys
import traceback
from contextlib import contextmanager, nullcontext
from time import perf_counter

from bench.stats import geomean
from bench.trace import CHECK


class Op:
    """Handle of one timed operation; ``count`` is how many ops it was."""

    __slots__ = ("count",)

    def __init__(self, count: int) -> None:
        self.count = count


class Recorder:
    """Host-time samples of the timed operations of one kind of pass.

    Before an op starts — never inside one — ``speed`` may time the
    machine-speed kernel of :mod:`bench.reference`; :meth:`rescale` applies
    the run's factor once the run is over.
    """

    def __init__(self, speed, tracer=None) -> None:
        self.speed = speed
        self.tracer = tracer
        self.samples_ms: list[float] = []
        self.series: dict[str, list[float]] = {}
        self.ops = 0
        self.busy_s = 0.0

    @contextmanager
    def op(self, count: int = 1, *, series: str | None = None):
        """Time one operation: a latency sample plus ``count`` ops of work."""
        handle = Op(count)
        self.speed.tick()
        if self.tracer is not None:
            self.tracer.op += 1
        start = perf_counter()
        yield handle
        elapsed = perf_counter() - start
        self.busy_s += elapsed
        self.ops += handle.count
        self.samples_ms.append(elapsed * 1e3)
        if series is not None:
            self.series.setdefault(series, []).append(elapsed * 1e3)

    @contextmanager
    def busy(self):
        """Time work that belongs to the ops but is not an op of its own."""
        self.speed.tick()
        start = perf_counter()
        yield
        self.busy_s += perf_counter() - start

    def rescale(self, factor: float) -> None:
        """Turn every time recorded so far into a nominal-speed time."""
        self.busy_s *= factor
        self.samples_ms = [ms * factor for ms in self.samples_ms]
        for values in self.series.values():
            values[:] = [ms * factor for ms in values]


class Workload:
    """Base class: failure accounting, output references, check spans."""

    name = ""

    def __init__(self, workdir: str) -> None:
        #: Scratch directory inside the checkout, removed after the run.
        self.workdir = workdir
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        #: Quality figures from each unit's first (fully verified) run.
        self.quality: dict[str, list] = {}
        self._seen: set = set()
        self._reference: dict[object, object] = {}

    def units(self) -> list:
        raise NotImplementedError

    def warmup(self) -> None:
        """One untimed operation before measuring (imports, lazy set-up)."""
        raise NotImplementedError

    def diagnostics(self, rec: Recorder) -> dict[str, float]:
        """Workload-specific figures beyond the common end-to-end ones.

        The schedule-quality figures come from the notes taken on first
        runs: the paper's speedup over Random (Figs. 10/11, geomean of
        simulated makespan ratios), the model's makespan error against the
        simulator, and the worst simulated power above the cap.
        """
        out = {}
        notes = self.quality
        if notes.get("speedup"):
            out["speedup_vs_random"] = geomean(notes["speedup"])
        if notes.get("model_error"):
            errors = notes["model_error"]
            out["model_error_pct"] = 100.0 * sum(errors) / len(errors)
        if notes.get("overshoot"):
            out["cap_overshoot_w"] = max(notes["overshoot"])
        return out

    # ------------------------------------------------------------------
    def check(self):
        """Span for the benchmark's own verifiers (``bench.check``)."""
        return self.tracer.span(CHECK) if self.tracer is not None else nullcontext()

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        print(f"[{self.name}] FAILED: {message}", file=sys.stderr)

    def crash(self, count: int) -> None:
        """Count an operation that raised; the run goes on."""
        self.failed += count
        print(f"[{self.name}] FAILED with an exception:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def first_run(self, key) -> bool:
        """True only the first time it is asked about ``key``."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def same_as_first(self, key, signature, count: int = 1) -> None:
        """Record ``signature`` on the first run; later runs must match it."""
        reference = self._reference.setdefault(key, signature)
        if reference != signature:
            self.fail(count, f"{key!r} did not reproduce its first output")

    def note(self, name: str, value) -> None:
        self.quality.setdefault(name, []).append(value)
