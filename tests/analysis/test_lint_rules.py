"""Per-rule positive/negative snippets plus engine-level behaviour.

Each rule gets a minimal snippet that must trigger it and near-miss
snippets that must not, written into layered paths under ``tmp_path`` so
the rules' scoping (``src/repro/<layer>/`` vs ``tests/``) is exercised
for real.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.lint.engine import (
    is_test_path,
    iter_source_files,
    parse_suppressions,
    path_in_layer,
    run_rules,
)
from repro.analysis.lint.rules import ALL_RULES


def lint_snippet(tmp_path, rel, source, select=None):
    f = tmp_path / rel
    f.parent.mkdir(parents=True, exist_ok=True)
    f.write_text(textwrap.dedent(source))
    return run_rules([tmp_path], ALL_RULES, select=select)


def codes(violations):
    return [v.rule for v in violations]


class TestRep001RawPlumbing:
    SNIPPET = """
        def plan(predictor, jobs, cap_w):
            return None
    """

    def test_flags_triple_outside_core(self, tmp_path):
        vs = lint_snippet(tmp_path, "src/repro/service/plumb.py", self.SNIPPET)
        assert codes(vs) == ["REP001"]
        assert "SchedulingContext" in vs[0].message

    @pytest.mark.parametrize(
        "module", ["api", "context", "bounds", "partition", "categorize"]
    )
    def test_model_level_core_modules_are_exempt(self, tmp_path, module):
        rel = f"src/repro/core/{module}.py"
        assert lint_snippet(tmp_path, rel, self.SNIPPET) == []

    @pytest.mark.parametrize("module", ["hcs", "genetic", "astar", "plumb"])
    def test_flags_triple_in_other_core_modules(self, tmp_path, module):
        vs = lint_snippet(tmp_path, f"src/repro/core/{module}.py", self.SNIPPET)
        assert codes(vs) == ["REP001"]

    def test_partial_triple_is_fine(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/service/ok.py",
            """
            def plan(predictor, jobs):
                return None
            """,
        )
        assert vs == []


class TestRep002DefaultRng:
    def test_flags_stdlib_random_import(self, tmp_path):
        vs = lint_snippet(tmp_path, "src/repro/model/a.py", "import random\n")
        assert codes(vs) == ["REP002"]

    def test_flags_from_random_import(self, tmp_path):
        vs = lint_snippet(
            tmp_path, "src/repro/model/b.py", "from random import choice\n"
        )
        assert codes(vs) == ["REP002"]

    def test_flags_numpy_global_rng_call(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/model/c.py",
            """
            import numpy as np

            def roll():
                return np.random.rand(3)
            """,
        )
        assert codes(vs) == ["REP002"]

    def test_flags_builtin_hash_outside_tests(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/experiments/h.py",
            """
            def seed_of(uid, seed):
                return hash((uid, seed)) % 2**32
            """,
        )
        assert codes(vs) == ["REP002"]
        assert "salted" in vs[0].message

    def test_builtin_hash_in_tests_is_fine(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "tests/experiments/h.py",
            """
            def test_hashable(key):
                assert hash(key) == hash(key)
            """,
        )
        assert vs == []

    def test_seeded_generator_methods_are_fine(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/model/d.py",
            """
            from repro.util.rng import default_rng

            def roll(seed):
                rng = default_rng(seed)
                return rng.random()
            """,
        )
        assert vs == []


class TestRep003FloatEquality:
    def test_flags_metric_equality(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/model/eq.py",
            """
            def same(a, b):
                return a.makespan_s == b.makespan_s
            """,
        )
        assert codes(vs) == ["REP003"]

    def test_approx_comparison_is_fine(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/model/approx.py",
            """
            import pytest

            def same(a, b):
                return a.energy_j == pytest.approx(b.energy_j)
            """,
        )
        assert vs == []

    def test_exact_zero_is_fine(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/model/zero.py",
            """
            def idle(m):
                return m.power_w == 0
            """,
        )
        assert vs == []

    def test_metric_receiver_with_plain_head_is_fine(self, tmp_path):
        # Only the operand's head names the compared value; an int counter
        # living on an energy-named object is not a metric comparison.
        vs = lint_snippet(
            tmp_path,
            "src/repro/model/counter.py",
            """
            def rejected_once(energy_state):
                return energy_state.metrics.rejected == 1
            """,
        )
        assert vs == []

    def test_boolean_operands_are_fine(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/model/boolcmp.py",
            """
            def agrees(flag, makespan_s, limit):
                return flag == (makespan_s < limit)
            """,
        )
        assert vs == []


class TestRep004RawReplay:
    SNIPPET = """
        from repro.core.schedule import predicted_makespan

        def score(sched, predictor, governor):
            return predicted_makespan(sched, predictor, governor)
    """

    def test_flags_raw_replay_in_production(self, tmp_path):
        vs = lint_snippet(tmp_path, "src/repro/engine/score.py", self.SNIPPET)
        assert codes(vs) == ["REP004"]

    def test_tests_may_pin_the_raw_replay(self, tmp_path):
        assert lint_snippet(tmp_path, "tests/core/test_x.py", self.SNIPPET) == []

    def test_perf_layer_is_exempt(self, tmp_path):
        assert lint_snippet(tmp_path, "src/repro/perf/ev.py", self.SNIPPET) == []

    def test_context_method_call_is_fine(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/engine/ok.py",
            """
            def score(ctx, sched):
                return ctx.predicted_makespan(sched)
            """,
        )
        assert vs == []


class TestRep005UnlockedServiceState:
    def test_flags_public_mutation_outside_lock(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/service/state.py",
            """
            import threading

            class State:
                def __init__(self):
                    self.lock = threading.RLock()
                    self.count = 0

                def bump(self):
                    self.count += 1
            """,
        )
        # __init__ is private-by-convention; only bump() is flagged.
        assert codes(vs) == ["REP005"]
        assert "self.count" in vs[0].message

    def test_mutation_under_lock_is_fine(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/service/locked.py",
            """
            import threading

            class State:
                def __init__(self):
                    self.lock = threading.RLock()
                    self.count = 0

                def bump(self):
                    with self.lock:
                        self.count += 1
            """,
        )
        assert vs == []

    def test_private_helpers_are_exempt(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/service/private.py",
            """
            import threading

            class State:
                def __init__(self):
                    self.lock = threading.Lock()
                    self.count = 0

                def _bump_locked(self):
                    self.count += 1
            """,
        )
        assert vs == []

    def test_lockless_classes_are_exempt(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/service/plain.py",
            """
            class Plain:
                def set(self, v):
                    self.value = v
            """,
        )
        assert vs == []

    def test_only_applies_to_service_layer(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/model/state.py",
            """
            import threading

            class State:
                def __init__(self):
                    self.lock = threading.RLock()

                def bump(self):
                    self.count = 1
            """,
        )
        assert vs == []


class TestRep006EngineWallClock:
    def test_flags_time_call_in_engine(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/engine/clock.py",
            """
            import time

            def now():
                return time.time()
            """,
        )
        assert codes(vs) == ["REP006"]

    def test_flags_wall_clock_import(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/engine/imp.py",
            "from time import perf_counter\n",
        )
        assert codes(vs) == ["REP006"]

    def test_flags_datetime_now(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/engine/dt.py",
            """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """,
        )
        assert codes(vs) == ["REP006"]

    def test_sleep_is_not_wall_clock(self, tmp_path):
        vs = lint_snippet(
            tmp_path, "src/repro/engine/slp.py", "from time import sleep\n"
        )
        assert vs == []

    def test_other_layers_may_read_the_clock(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/service/clock.py",
            """
            import time

            def now():
                return time.time()
            """,
        )
        assert vs == []


class TestRep007DeprecatedExecutors:
    SNIPPET = """
        from repro.engine import execute_schedule

        def plan(processor, cpu_q, gpu_q, governor):
            return execute_schedule(processor, cpu_q, gpu_q, governor)
    """

    def test_flags_shim_call(self, tmp_path):
        vs = lint_snippet(tmp_path, "src/repro/experiments/old.py", self.SNIPPET)
        assert codes(vs) == ["REP007"]
        assert "engine.run()" in vs[0].message

    def test_flags_attribute_call(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/service/old.py",
            """
            import repro.engine as engine

            def plan(processor, source, governor):
                return engine.execute_online(processor, source, governor)
            """,
        )
        assert codes(vs) == ["REP007"]

    @pytest.mark.parametrize(
        "home",
        [
            "src/repro/engine/multiprog.py",
            "src/repro/engine/__init__.py",
        ],
    )
    def test_engine_modules_no_longer_exempt(self, tmp_path, home):
        # The shims are gone, so even their former home modules may not
        # reintroduce call sites.
        assert codes(lint_snippet(tmp_path, home, self.SNIPPET)) == ["REP007"]

    def test_tests_are_exempt(self, tmp_path):
        assert (
            lint_snippet(tmp_path, "tests/engine/test_old.py", self.SNIPPET) == []
        )

    def test_reference_without_call_is_fine(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/experiments/doc.py",
            """
            from repro.engine import execute_schedule

            LEGACY = {"fixed": execute_schedule}
            """,
        )
        assert vs == []

    def test_unrelated_call_is_fine(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/experiments/ok.py",
            """
            def drive(engine, scenario):
                return engine.run(scenario)
            """,
        )
        assert vs == []


class TestRep008StoreBypass:
    def test_flags_foreign_state_mutation(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/service/patch.py",
            """
            def force_done(store, job_id):
                store._state.jobs[job_id].state = "done"
            """,
        )
        assert codes(vs) == ["REP008"]
        assert "event-log API" in vs[0].message

    def test_flags_direct_log_append(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/service/patch.py",
            """
            def sneak(self, event):
                self.store._log.append(event)
            """,
        )
        assert codes(vs) == ["REP008"]

    def test_flags_reads_too(self, tmp_path):
        # Reading the fold directly couples callers to the in-memory
        # representation; the store exposes job()/jobs for that.
        vs = lint_snippet(
            tmp_path,
            "src/repro/store/extras.py",
            """
            def peek(store):
                return store._state.now_s
            """,
        )
        assert codes(vs) == ["REP008"]

    def test_own_private_attribute_is_fine(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/service/ownstate.py",
            """
            class Tracker:
                def __init__(self):
                    self._state = {}

                def bump(self, key):
                    self._state[key] = self._state.get(key, 0) + 1
            """,
        )
        assert vs == []

    def test_store_and_log_modules_are_exempt(self, tmp_path):
        snippet = """
            class JobStore:
                def commit(self, store, event):
                    store._state = store._state.apply(event)
        """
        assert lint_snippet(tmp_path, "src/repro/store/store.py", snippet) == []
        assert lint_snippet(tmp_path, "src/repro/store/log.py", snippet) == []

    def test_commit_flush_api_is_fine(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/service/good.py",
            """
            def record(store, event):
                store.commit(event)
                store.flush()
            """,
        )
        assert vs == []

    def test_other_layers_are_exempt(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/experiments/probe.py",
            """
            def peek(store):
                return store._state
            """,
        )
        assert vs == []


class TestRep009RawContextCap:
    SNIPPET = """
        def budget(ctx):
            return ctx.cap_w
    """

    def test_flags_raw_read_in_production_code(self, tmp_path):
        vs = lint_snippet(tmp_path, "src/repro/service/bill.py", self.SNIPPET)
        assert codes(vs) == ["REP009"]
        assert "context_cap" in vs[0].message

    @pytest.mark.parametrize(
        "expr", ["self.ctx.cap_w", "sub_ctx.cap_w", "context.cap_w"]
    )
    def test_flags_any_context_shaped_receiver(self, tmp_path, expr):
        vs = lint_snippet(
            tmp_path,
            "src/repro/model/peek.py",
            f"""
            def peek(self, sub_ctx, context):
                return {expr}
            """,
        )
        assert codes(vs) == ["REP009"]

    @pytest.mark.parametrize("home", ["feasibility.py", "fleet.py"])
    def test_accessor_homes_are_exempt(self, tmp_path, home):
        assert lint_snippet(tmp_path, f"src/repro/core/{home}", self.SNIPPET) == []

    def test_other_core_modules_are_not_exempt(self, tmp_path):
        vs = lint_snippet(tmp_path, "src/repro/core/evaluator.py", self.SNIPPET)
        assert codes(vs) == ["REP009"]

    def test_tests_are_exempt(self, tmp_path):
        assert lint_snippet(tmp_path, "tests/test_caps.py", self.SNIPPET) == []

    @pytest.mark.parametrize(
        "expr", ["self.cap_w", "fleet.cap_w", "node.cap_w", "session.cap_w"]
    )
    def test_non_context_receivers_are_fine(self, tmp_path, expr):
        vs = lint_snippet(
            tmp_path,
            "src/repro/service/ok.py",
            f"""
            def peek(self, fleet, node, session):
                return {expr}
            """,
        )
        assert vs == []

    def test_noqa_escape_hatch(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/service/compat.py",
            """
            def budget(ctx):
                return ctx.cap_w  # repro: noqa REP009 -- single-node shim
            """,
        )
        assert vs == []


class TestEngine:
    def test_trailing_noqa_suppresses(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/model/s1.py",
            "import random  # repro: noqa REP002 -- deliberate\n",
        )
        assert vs == []

    def test_comment_line_noqa_suppresses_next_line(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/model/s2.py",
            """
            # repro: noqa REP002 -- deliberate
            import random
            """,
        )
        assert vs == []

    def test_bare_noqa_suppresses_everything(self, tmp_path):
        vs = lint_snippet(
            tmp_path, "src/repro/model/s3.py", "import random  # repro: noqa\n"
        )
        assert vs == []

    def test_mismatched_code_does_not_suppress(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/model/s4.py",
            "import random  # repro: noqa REP003 -- wrong code\n",
        )
        assert codes(vs) == ["REP002"]

    def test_syntax_error_reported_as_rep000(self, tmp_path):
        vs = lint_snippet(tmp_path, "src/repro/model/bad.py", "def broken(:\n")
        assert codes(vs) == ["REP000"]

    def test_unknown_select_code_raises(self, tmp_path):
        with pytest.raises(ValueError, match="REP999"):
            lint_snippet(
                tmp_path, "src/repro/model/x.py", "x = 1\n", select=["REP999"]
            )

    def test_select_restricts_rules(self, tmp_path):
        f = tmp_path / "src/repro/model/two.py"
        f.parent.mkdir(parents=True)
        f.write_text("import random\n\n\ndef f(a):\n    return a.edp_js == 2.0\n")
        both = run_rules([tmp_path], ALL_RULES)
        only = run_rules([tmp_path], ALL_RULES, select=["REP003"])
        assert codes(both) == ["REP002", "REP003"]
        assert codes(only) == ["REP003"]

    def test_violation_render_has_location(self, tmp_path):
        (vs,) = lint_snippet(tmp_path, "src/repro/model/r.py", "import random\n")
        rendered = vs.render()
        assert rendered.startswith(str(tmp_path / "src/repro/model/r.py"))
        assert ":1:" in rendered and "REP002" in rendered

    def test_iter_source_files_skips_caches(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("import random\n")
        (tmp_path / "real.py").write_text("x = 1\n")
        assert iter_source_files([tmp_path]) == [tmp_path / "real.py"]

    def test_parse_suppressions_merges_codes(self):
        table = parse_suppressions(
            "x = 1  # repro: noqa REP001, REP004\n"
        )
        assert table == {1: {"REP001", "REP004"}}

    def test_path_helpers(self):
        from pathlib import PurePath

        assert path_in_layer(PurePath("src/repro/core/api.py"), "core")
        assert not path_in_layer(PurePath("tests/core/test_api.py"), "core")
        assert is_test_path(PurePath("tests/core/test_api.py"))
        assert is_test_path(PurePath("somewhere/test_thing.py"))
        assert not is_test_path(PurePath("src/repro/core/api.py"))
