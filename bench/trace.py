"""Per-layer spans, recorded from outside the program.

The tracer wraps the public functions of each layer (the table below) at
run time: it replaces the function on its defining module or class and on
every ``repro``/``bench`` module that bound the same object by name, then
restores the originals.  Nothing under ``src/`` is edited.

A span records a layer's start and end.  Its *self time* is its duration
minus the time its child spans cover, so the self times of all layers plus
``unattributed`` add up to the traced wall time.  Spans opened while the
benchmark's own verifiers run (``bench.check``) are folded into that
layer, so checking an output never inflates the layer it checks.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter_ns

#: Layer -> the public callables timed for it, as ``(module, attribute)``.
#: ``Class.method`` attributes are wrapped on the class.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "model.profile": (
        ("repro.model.profiler", "profile_workload"),
        ("repro.model.profiler", "extend_table"),
    ),
    "model.characterize": (("repro.model.characterize", "characterize_space"),),
    "perf.tensorize": (("repro.perf.tensor", "tensorize"),),
    "perf.pair_tables": (("repro.perf.tensor", "PairTables.build"),),
    "core.context": (("repro.core.context", "SchedulingContext.__init__"),),
    "core.hcs": (
        ("repro.core.hcs", "hcs_schedule"),
        ("repro.core.hcs", "partition_jobs"),
        ("repro.core.hcs", "categorize_jobs"),
    ),
    "core.refine": (("repro.core.refine", "refine_schedule"),),
    "core.genetic": (("repro.core.genetic", "genetic_schedule"),),
    "core.portfolio": (("repro.core.portfolio", "portfolio_schedule"),),
    "core.baselines": (("repro.core.baselines", "random_schedule"),),
    "perf.population": (
        ("repro.perf.population", "evolve_population"),
        ("repro.perf.population", "refine_queues"),
        ("repro.perf.population", "decode_queues"),
    ),
    "perf.replay.single": (
        ("repro.perf.tensor", "BatchScheduleEvaluator.__call__"),
        ("repro.perf.tensor", "BatchScheduleEvaluator.metrics"),
    ),
    "perf.replay.batch": (("repro.perf.tensor", "BatchScheduleEvaluator.evaluate_all"),),
    "perf.replay.population": (
        ("repro.perf.tensor", "BatchScheduleEvaluator.score_population"),
    ),
    # One wrapper, three layers: split by the scenario's kind.
    "engine.run": (("repro.engine.sim", "run"),),
    "engine.feedback": (("repro.engine.feedback", "execute_with_reactive_cap"),),
    "service.decode": (("repro.service.protocol", "decode_request"),),
    "service.encode": (("repro.service.protocol", "encode"),),
    "service.handle": (("repro.service.server", "ServiceState.handle_batch"),),
    "service.session": (
        ("repro.service.session", "ServiceSession.submit"),
        ("repro.service.session", "ServiceSession.advance"),
        ("repro.service.session", "ServiceSession.drain"),
        ("repro.service.session", "ServiceSession.set_cap"),
    ),
    "service.scheduler": (("repro.core.api", "Scheduler.__call__"),),
    "store.commit": (("repro.store.store", "JobStore.commit"),),
    "store.append": (("repro.store.log", "SQLiteEventLog.append_many"),),
    "store.snapshot": (("repro.store.log", "SQLiteEventLog.save_snapshot"),),
}

ENGINE_RUN_KINDS = ("fixed", "arrivals", "timeshare")
CHECK = "bench.check"
UNATTRIBUTED = "unattributed"

#: Every layer that reports ``calls``/``self_s``/``share``, in table order.
LAYER_NAMES: tuple[str, ...] = tuple(
    name
    for layer in LAYERS
    for name in (
        [f"engine.run.{kind}" for kind in ENGINE_RUN_KINDS]
        if layer == "engine.run"
        else [layer]
    )
) + (CHECK,)

#: Bench modules and repro modules are scanned for by-name bindings.
_SCANNED_PREFIXES = ("repro.", "bench.")
_MISSING = object()


def _engine_layer(args, kwargs) -> str:
    scenario = args[1] if len(args) > 1 else kwargs["scenario"]
    if scenario.cpu_timeshare:
        return "engine.run.timeshare"
    return "engine.run.fixed" if scenario.fixed else "engine.run.arrivals"


class Tracer:
    """Span/counter registry for the traced passes of one benchmark run.

    ``install()``/``uninstall()`` swap the wrappers in and out; a wrapper
    left bound somewhere after ``uninstall()`` (a module imported while
    tracing was on) passes straight through.
    """

    def __init__(self, max_spans: int = 200_000) -> None:
        self.calls = dict.fromkeys(LAYER_NAMES, 0)
        self.self_ns = dict.fromkeys(LAYER_NAMES, 0)
        self.wall_ns = 0
        self.max_spans = max_spans
        #: (layer, start_ns, duration_ns, op id) of the first ``max_spans``
        self.spans: list[tuple[str, int, int, int]] = []
        self.op = 0
        self.tensorize_declined = 0
        self.engine_events = 0
        self.engine_ns = 0
        self._cache_stats: dict[int, object] = {}
        self._batch_stats: dict[int, dict] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object, object]] | None = None
        self.active = False

    # ------------------------------------------------------------------
    # Span accounting
    # ------------------------------------------------------------------
    def _open(self, layer: str) -> list:
        frame = [layer, perf_counter_ns(), 0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> int:
        end = perf_counter_ns()
        self._stack.pop()
        layer, start, child_ns = frame
        duration = end - start
        self.self_ns[layer] += duration - child_ns
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.spans) < self.max_spans:
            self.spans.append((layer, start, duration, self.op))
        return duration

    def _passing_through(self) -> bool:
        return not self.active or (
            bool(self._stack) and self._stack[-1][0] == CHECK
        )

    @contextmanager
    def span(self, layer: str):
        """Time a block of benchmark code as ``layer`` (used for checks)."""
        if not self.active:
            yield
            return
        frame = self._open(layer)
        try:
            yield
        finally:
            self._close(frame)

    @contextmanager
    def traced(self):
        """Install the wrappers for one pass and add its wall time."""
        self.install()
        start = perf_counter_ns()
        try:
            yield
        finally:
            self.wall_ns += perf_counter_ns() - start
            self.uninstall()

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(self, layer: str, fn):
        tracer = self
        after = _AFTER.get(layer)

        def wrapper(*args, **kwargs):
            if tracer._passing_through():
                return fn(*args, **kwargs)
            name = _engine_layer(args, kwargs) if layer == "engine.run" else layer
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._close(frame)
            if after is not None:
                after(tracer, args, result, duration)
            return result

        return functools.wraps(fn)(wrapper)

    def _after_engine_run(self, args, result, duration: int) -> None:
        self.engine_ns += duration
        self.engine_events += result.events_processed

    def _after_tensorize(self, args, result, duration: int) -> None:
        if result is None:
            self.tensorize_declined += 1

    def _after_context(self, args, result, duration: int) -> None:
        self._watch(args[0])

    def _watch(self, ctx) -> None:
        """Keep the public counters of a context built in a traced pass."""
        self._cache_stats[id(ctx.cache.stats)] = ctx.cache.stats
        batch = getattr(ctx.evaluator, "batch_stats", None)
        if batch is not None:
            self._batch_stats[id(batch)] = batch

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """Every (owner, name, original, wrapper) swap, found once."""
        patches = []
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    raw = owner.__dict__.get(meth, _MISSING)
                    if isinstance(raw, classmethod):
                        wrapper = classmethod(self._wrap(layer, raw.__func__))
                    else:
                        wrapper = self._wrap(layer, getattr(owner, meth))
                    patches.append((owner, meth, raw, wrapper))
                    continue
                fn = getattr(module, attr)
                wrapper = self._wrap(layer, fn)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not mod_name.startswith(_SCANNED_PREFIXES):
                        continue
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            patches.append((mod, name, fn, wrapper))
        return patches

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._plan()
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, name, original, _ in reversed(self._patches or ()):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """``<layer>.calls|self_s|share`` plus the tracer's counters."""
        out: dict[str, float] = {}
        attributed = 0
        for layer in LAYER_NAMES:
            attributed += self.self_ns[layer]
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
            out[f"{layer}.share"] = (
                self.self_ns[layer] / self.wall_ns if self.wall_ns else 0.0
            )
        rest = max(self.wall_ns - attributed, 0)
        out[f"{UNATTRIBUTED}.self_s"] = rest / 1e9
        out[f"{UNATTRIBUTED}.share"] = rest / self.wall_ns if self.wall_ns else 0.0

        hits = sum(s.hits for s in self._cache_stats.values())
        misses = sum(s.misses for s in self._cache_stats.values())
        out["perf.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        batch = self._batch_stats.values()
        delta = sum(b["delta_resumes"] for b in batch)
        full = sum(b["full_replays"] for b in batch)
        out["perf.replay.delta_ratio"] = delta / (delta + full) if delta + full else 0.0
        out["perf.replay.scalar_fallbacks"] = sum(b["scalar_fallbacks"] for b in batch)
        out["perf.replay.population_lanes"] = sum(
            b["population_schedules"] for b in batch
        )
        out["perf.tensorize.declined"] = self.tensorize_declined
        out["engine.events"] = self.engine_events
        out["engine.events_per_s"] = (
            self.engine_events / (self.engine_ns / 1e9) if self.engine_ns else 0.0
        )
        return out

    def write_chrome(self, path: str) -> None:
        """Write the recorded spans as Chrome trace-event JSON (Perfetto)."""
        events = [
            {
                "name": layer,
                "cat": layer.split(".")[0],
                "ph": "X",
                "ts": start / 1e3,
                "dur": duration / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"op": op},
            }
            for layer, start, duration, op in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


#: Counter updates after a traced call, by layer.
_AFTER = {
    "engine.run": Tracer._after_engine_run,
    "perf.tensorize": Tracer._after_tensorize,
    "core.context": Tracer._after_context,
}
