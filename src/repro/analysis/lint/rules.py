"""The REP001-REP011 rule catalog (see docs/ANALYSIS.md for the rationale).

Each rule enforces a convention this codebase relies on for correctness but
that nothing machine-checked before:

* REP001 — schedulers accept a ``SchedulingContext``, not raw
  ``(predictor, jobs, cap_w)`` plumbing (outside the ``repro.core``
  modules that build a context or run below one).
* REP002 — randomness flows through ``repro.util.rng`` / ``ctx.rng()``,
  never the process-global ``random`` / ``numpy.random`` state.
* REP003 — no float ``==`` / ``!=`` on makespan/energy/power expressions;
  compare with a tolerance (exact-zero and identity-vs-string compares are
  exempt; byte-identical memoization checks carry a ``noqa``).
* REP004 — production code evaluates schedules through the memoizing
  evaluator (``ctx.score`` / ``ctx.metrics``), not the raw replay
  functions, so the EvalCache sees every query.
* REP005 — public methods of lock-owning service classes mutate shared
  state only under ``with <lock>:``.
* REP006 — ``repro.engine`` runs on the simulated timeline; wall-clock
  calls are banned there.
* REP007 — executions go through the unified ``engine.run()`` entry
  point; the removed ``execute_*`` shims must not be reintroduced.
* REP008 — durable job-store state changes flow through the event-log
  API (``commit``/``flush``/``fold``); no other store/service module may
  reach into a store's ``_state`` / ``_log`` internals directly.
* REP009 — production code reads a context's power cap through
  ``repro.core.feasibility.context_cap`` (or the fleet API), never raw
  ``ctx.cap_w`` attribute plumbing: on a multi-node fleet context the
  scalar alias is meaningless, and ``context_cap`` is where that is
  enforced.
* REP010 — dimensional consistency of watts/joules/seconds arithmetic:
  the :mod:`repro.analysis.dims` dataflow pass flags cross-dimension
  add/compare, ``power_scale`` applied twice, and products whose
  dimension contradicts the name they flow into.
* REP011 — the two time dimensions stay apart: native (scaled-node)
  seconds never meet wall seconds without the sanctioned
  ``/ speed_scale`` conversion, and the conversion is applied exactly
  once, in the right direction.
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePath
from collections.abc import Iterator

from repro.analysis.lint.engine import (
    Finding,
    LintRule,
    is_test_path,
    path_in_layer,
)

#: Identifier substrings that mark an expression as a physical metric.
_METRIC_RE = re.compile(r"makespan|energy|power|edp")

#: Wall-clock callables banned from the engine layer.
_WALL_CLOCK_TIME_FNS = {"time", "monotonic", "perf_counter", "process_time"}
_WALL_CLOCK_DT_FNS = {"now", "utcnow", "today"}

#: Lock-like constructors that mark an attribute as a lock.
_LOCK_CTORS = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}


def _dotted(node: ast.expr) -> tuple[str, ...]:
    """The dotted-name chain of a Name/Attribute expression (else empty)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def _param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    a = fn.args
    return {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)}


class RawPlumbingRule(LintRule):
    code = "REP001"
    title = "raw (predictor, jobs, cap_w) plumbing in a scheduler"
    rationale = (
        "PR 3 unified every scheduler behind SchedulingContext; a function "
        "re-growing the legacy triple re-opens the drift the context closed "
        "(mismatched governors, unshared caches, unseeded RNGs)."
    )

    _TRIPLE = {"predictor", "jobs", "cap_w"}
    #: The ``repro.core`` modules that still take the triple: ``api`` and
    #: ``context`` build a context from it, and the bound, partition and
    #: categorization steps run model-level, below any context (the
    #: invariant checker in ``repro.analysis`` calls them that way).
    _CORE_EXEMPT = frozenset({"api", "context", "bounds", "partition", "categorize"})

    def applies_to(self, path: PurePath) -> bool:
        if path_in_layer(path, "analysis"):
            return False
        return not (path_in_layer(path, "core") and path.stem in self._CORE_EXEMPT)

    def findings(self, tree: ast.Module, path: PurePath) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self._TRIPLE <= _param_names(node):
                    yield Finding(
                        node,
                        f"function {node.name!r} takes raw (predictor, jobs,"
                        " cap_w) plumbing; accept a SchedulingContext",
                    )


class DefaultRngRule(LintRule):
    code = "REP002"
    title = "process-global RNG use"
    rationale = (
        "Reproducibility is a headline property of the reproduction: every "
        "stochastic path must draw from util.rng.default_rng / ctx.rng() so "
        "a seed replays the identical schedule."
    )

    def findings(self, tree: ast.Module, path: PurePath) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        yield Finding(
                            node,
                            "stdlib 'random' is process-global and unseeded"
                            " here; use repro.util.rng.default_rng",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield Finding(
                        node,
                        "stdlib 'random' is process-global and unseeded"
                        " here; use repro.util.rng.default_rng",
                    )
            elif isinstance(node, ast.Call):
                chain = _dotted(node.func)
                if (
                    len(chain) >= 3
                    and chain[0] in ("np", "numpy")
                    and chain[1] == "random"
                ):
                    yield Finding(
                        node,
                        f"direct {'.'.join(chain)}() call; route randomness"
                        " through repro.util.rng (default_rng / spawn_rng)"
                        " or ctx.rng()",
                    )


class FloatEqualityRule(LintRule):
    code = "REP003"
    title = "float ==/!= on a makespan/energy/power expression"
    rationale = (
        "Predicted metrics are floats built from long reduction chains;"
        " exact comparison encodes an accident of summation order. Compare"
        " with pytest.approx / math.isclose, except for exact-zero and"
        " deliberately byte-identical memoization contracts."
    )

    @staticmethod
    def _is_tolerant_call(node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        chain = _dotted(node.func)
        return bool(chain) and chain[-1] in ("approx", "isclose")

    @staticmethod
    def _is_exempt_constant(node: ast.expr) -> bool:
        return isinstance(node, ast.Constant) and (
            isinstance(node.value, (str, bytes))
            or node.value is None
            or (
                isinstance(node.value, (int, float))
                and not isinstance(node.value, bool)
                and node.value == 0
            )
        )

    @classmethod
    def _mentions_metric(cls, node: ast.expr) -> bool:
        """Is the *value* of this operand a metric quantity?

        Looks at the operand's head — the final attribute, name, or called
        function — not at receivers along the way, so
        ``energy_state.metrics.rejected == 1`` (an int counter on an
        energy-objective fixture) is not a metric comparison while
        ``execution.energy_j == x`` is.  Boolean-valued operands
        (comparisons, ``and``/``or``/``not``) are never metrics.
        """
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            return False
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                return False
            return cls._mentions_metric(node.operand)
        if isinstance(node, ast.BinOp):
            return cls._mentions_metric(node.left) or cls._mentions_metric(
                node.right
            )
        if isinstance(node, ast.Call):
            chain = _dotted(node.func)
            return bool(chain) and bool(_METRIC_RE.search(chain[-1]))
        if isinstance(node, ast.Attribute):
            return bool(_METRIC_RE.search(node.attr))
        if isinstance(node, ast.Name):
            return bool(_METRIC_RE.search(node.id))
        return False

    def findings(self, tree: ast.Module, path: PurePath) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(self._is_tolerant_call(o) for o in operands):
                continue
            if any(self._is_exempt_constant(o) for o in operands):
                continue
            if any(self._mentions_metric(o) for o in operands):
                yield Finding(
                    node,
                    "exact float comparison on a makespan/energy/power"
                    " expression; use pytest.approx or math.isclose",
                )


class RawReplayRule(LintRule):
    code = "REP004"
    title = "raw schedule replay outside the perf evaluator layer"
    rationale = (
        "predicted_makespan/predicted_metrics bypass the EvalCache; calling"
        " them directly in production code forfeits memoization and lets"
        " scores drift from what the schedulers actually minimized. Use"
        " ctx.score/ctx.metrics or a ScheduleEvaluator."
    )

    _RAW = {"predicted_makespan", "predicted_metrics"}

    def applies_to(self, path: PurePath) -> bool:
        if is_test_path(path):
            return False  # spec tests pin the raw replay on purpose
        if path_in_layer(path, "perf") or path_in_layer(path, "analysis"):
            return False
        return not (path_in_layer(path, "core") and path.name == "schedule.py")

    def findings(self, tree: ast.Module, path: PurePath) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self._RAW
            ):
                yield Finding(
                    node,
                    f"direct {node.func.id}() call bypasses the EvalCache;"
                    " use ctx.score()/ctx.metrics() or a ScheduleEvaluator",
                )


class UnlockedServiceStateRule(LintRule):
    code = "REP005"
    title = "service-layer shared state mutated outside a lock"
    rationale = (
        "The daemon's correctness model is a single writer: public methods"
        " of lock-owning classes must take the lock before touching shared"
        " attributes (private helpers are assumed to be called under it)."
    )

    def applies_to(self, path: PurePath) -> bool:
        return path_in_layer(path, "service")

    @staticmethod
    def _lock_attrs(cls: ast.ClassDef) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                chain = _dotted(node.value.func)
                if chain and chain[-1] in _LOCK_CTORS:
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            names.add(target.attr)
        return names

    @classmethod
    def _with_takes_lock(cls, node: ast.With, locks: set[str]) -> bool:
        for item in node.items:
            for sub in ast.walk(item.context_expr):
                if isinstance(sub, ast.Attribute) and sub.attr in locks:
                    return True
        return False

    def _scan(
        self, body: list[ast.stmt], locks: set[str], locked: bool
    ) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, ast.With) and self._with_takes_lock(stmt, locks):
                continue  # everything inside holds the lock
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                targets = [stmt.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and not locked
                ):
                    yield Finding(
                        stmt,
                        f"'self.{target.attr}' mutated outside a 'with"
                        " <lock>:' block in a public method of a"
                        " lock-owning class",
                    )
            # Recurse into nested statement lists (if/for/try/while bodies).
            for field_body in (
                getattr(stmt, "body", None),
                getattr(stmt, "orelse", None),
                getattr(stmt, "finalbody", None),
            ):
                if isinstance(field_body, list):
                    yield from self._scan(field_body, locks, locked)
            for handler in getattr(stmt, "handlers", []) or []:
                yield from self._scan(handler.body, locks, locked)

    def findings(self, tree: ast.Module, path: PurePath) -> Iterator[Finding]:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            locks = self._lock_attrs(cls)
            if not locks:
                continue
            for method in cls.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if method.name.startswith("_"):
                    continue  # private helpers run under the caller's lock
                yield from self._scan(method.body, locks, locked=False)


class EngineWallClockRule(LintRule):
    code = "REP006"
    title = "wall-clock time inside repro.engine"
    rationale = (
        "The engine is a deterministic virtual-time simulator; a wall-clock"
        " read makes results machine- and load-dependent. Thread the"
        " simulated timeline instead."
    )

    def applies_to(self, path: PurePath) -> bool:
        return path_in_layer(path, "engine")

    def findings(self, tree: ast.Module, path: PurePath) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                bad = sorted(
                    a.name
                    for a in node.names
                    if a.name in _WALL_CLOCK_TIME_FNS
                )
                if bad:
                    yield Finding(
                        node,
                        f"wall-clock import ({', '.join(bad)}) in engine"
                        " code; use the simulated timeline",
                    )
            elif isinstance(node, ast.Call):
                chain = _dotted(node.func)
                if (
                    len(chain) == 2
                    and chain[0] == "time"
                    and chain[1] in _WALL_CLOCK_TIME_FNS
                ):
                    yield Finding(
                        node,
                        f"wall-clock call {'.'.join(chain)}() in engine"
                        " code; use the simulated timeline",
                    )
                elif (
                    len(chain) >= 2
                    and "datetime" in chain
                    and chain[-1] in _WALL_CLOCK_DT_FNS
                ):
                    yield Finding(
                        node,
                        f"wall-clock call {'.'.join(chain)}() in engine"
                        " code; use the simulated timeline",
                    )


class DeprecatedExecutorRule(LintRule):
    code = "REP007"
    title = "call to a removed execute_* engine shim"
    rationale = (
        "engine.run() replaced execute_schedule/execute_online/"
        "execute_with_arrivals/execute_default_schedule; the deprecation"
        " shims have completed their one-release grace period and are"
        " gone, so a call site is either dead code or a reintroduction of"
        " the pre-Scenario surface. Build a Scenario and call"
        " engine.run()."
    )

    _SHIMS = {
        "execute_schedule",
        "execute_online",
        "execute_with_arrivals",
        "execute_default_schedule",
    }

    def applies_to(self, path: PurePath) -> bool:
        # The shims no longer exist anywhere in src/, so no module is
        # exempt; tests stay out because the legacy reference copies
        # (tests/engine/_reference.py) deliberately keep the old names.
        return not is_test_path(path)

    def findings(self, tree: ast.Module, path: PurePath) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                chain = _dotted(node.func)
                if chain and chain[-1] in self._SHIMS:
                    yield Finding(
                        node,
                        f"removed {chain[-1]}() shim called; build a"
                        " Scenario and call repro.engine.run()",
                    )


class StoreBypassRule(LintRule):
    code = "REP008"
    title = "job-store internals touched outside the event-log API"
    rationale = (
        "Crash recovery replays the event log into a fresh fold; any state"
        " reached by mutating a store's '_state' or '_log' directly never"
        " hits the log, so it silently evaporates on restart and breaks"
        " the snapshot+suffix == full-replay invariant. Emit an event and"
        " commit()/flush() it instead."
    )

    #: Internals of :class:`repro.store.store.JobStore` (and its event
    #: logs) that only the store's own module may touch.
    _INTERNALS = {"_state", "_log"}
    #: The event-log API's home modules: the only place the internals are
    #: legitimately the receiver's own representation.
    _HOMES = {"store.py", "log.py"}

    def applies_to(self, path: PurePath) -> bool:
        if is_test_path(path):
            return False
        if path_in_layer(path, "store"):
            return path.name not in self._HOMES
        return path_in_layer(path, "service")

    def findings(self, tree: ast.Module, path: PurePath) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in self._INTERNALS
            ):
                # A class touching its *own* private attribute is fine
                # (that is just normal encapsulation); reaching through
                # another object — `store._state`, `self.store._log` — is
                # the bypass this rule exists for.
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    continue
                yield Finding(
                    node,
                    f"'{node.attr}' of another object accessed directly;"
                    " job-store state changes must go through the"
                    " event-log API (commit an event and flush)",
                )


class RawContextCapRule(LintRule):
    code = "REP009"
    title = "raw ctx.cap_w read outside the feasibility/fleet layer"
    rationale = (
        "The fleet refactor made cap_w a single-node *alias*: on a"
        " multi-node context it is None and per-node caps live on the"
        " fleet. context_cap(ctx) is the sanctioned accessor — it returns"
        " the scalar cap where one exists and raises loudly where code"
        " silently assuming one scalar cap would miscompute. A raw"
        " ctx.cap_w read bypasses that tripwire."
    )

    #: The only modules allowed to touch the attribute directly: the
    #: accessor's own home and the fleet model that defines the caps.
    _HOMES = {"feasibility.py", "fleet.py"}

    @staticmethod
    def _is_ctx_name(name: str) -> bool:
        return "ctx" in name or name == "context"

    def applies_to(self, path: PurePath) -> bool:
        if is_test_path(path):
            return False  # tests pin the compat alias on purpose
        if path_in_layer(path, "core") and path.name in self._HOMES:
            return False
        return True

    def findings(self, tree: ast.Module, path: PurePath) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Attribute) and node.attr == "cap_w"
            ):
                continue
            chain = _dotted(node.value)
            # `ctx.cap_w`, `nctx.cap_w`, `self.ctx.cap_w`, `sub_ctx.cap_w`
            # — anything whose receiver reads like a scheduling context.
            # `self.cap_w` / `fleet.cap_w` / `node.cap_w` are not contexts.
            if chain and self._is_ctx_name(chain[-1]):
                yield Finding(
                    node,
                    f"raw '{'.'.join(chain)}.cap_w' read; use"
                    " repro.core.feasibility.context_cap(ctx) (fleet-aware"
                    " and loud on multi-node contexts)",
                )


class _DimsRuleBase(LintRule):
    """Shared plumbing for the two dims-checker surfaces.

    The heavy lifting lives in :mod:`repro.analysis.dims`; these rules
    adapt its findings to the engine so path scoping, ``--select``, and
    ``# repro: noqa`` suppressions work unchanged.  Both rules run the
    (memoized) analysis once per module and keep the findings matching
    their own code.
    """

    def findings(self, tree: ast.Module, path: PurePath) -> Iterator[Finding]:
        from repro.analysis.dims import check_module_cached

        for finding in check_module_cached(tree, path):
            if finding.code == self.code:
                yield Finding(finding.node, finding.message)


class DimensionMismatchRule(_DimsRuleBase):
    code = "REP010"
    title = "cross-dimension watts/joules/seconds arithmetic"
    rationale = (
        "The paper's contract is dimensional: caps in watts, energy in"
        " joules, spans in seconds. The dims dataflow pass propagates"
        " dimensions from repro.units annotations and the *_w/*_j/*_s"
        " naming conventions; adding or comparing across dimensions"
        " (cap_w vs energy_j), double-applying power_scale, or storing a"
        " W x s product under a watts name is a silent correctness bug"
        " the runtime sanitizer only catches when a cap happens to be"
        " violated."
    )


class WallNativeTimeRule(_DimsRuleBase):
    code = "REP011"
    title = "native/wall seconds mixed or speed_scale misapplied"
    rationale = (
        "The fleet layer runs two clocks: a scaled node's native seconds"
        " and the fleet-wide wall clock, related by wall = native /"
        " speed_scale. Mixing the flavors without that division — or"
        " applying it twice, or in the wrong direction — silently skews"
        " every cross-node makespan, deadline, and migration decision;"
        " convert through repro.units.wall_from_native/native_from_wall."
    )


#: The dimensional-analysis subset (``python -m repro.analysis.dims``).
DIMS_RULES: tuple[LintRule, ...] = (
    DimensionMismatchRule(),
    WallNativeTimeRule(),
)

#: The shipped rule set, in catalog order.
ALL_RULES: tuple[LintRule, ...] = (
    RawPlumbingRule(),
    DefaultRngRule(),
    FloatEqualityRule(),
    RawReplayRule(),
    UnlockedServiceStateRule(),
    EngineWallClockRule(),
    DeprecatedExecutorRule(),
    StoreBypassRule(),
    RawContextCapRule(),
    *DIMS_RULES,
)
