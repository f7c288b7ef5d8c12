"""Seeded bug corpus for the dims dataflow checker (REP010/REP011).

Every fixture is a realistic unit bug written into a layered path under
``tmp_path`` and linted through the real rule engine, so the corpus
proves the checker has teeth end to end: the dimension lattice, the
naming conventions, the interprocedural signature index, and the noqa
suppression machinery all sit in the loop.  Negative twins pin the
permissive-by-default contract — unknown dimensions never speak.
"""

from __future__ import annotations

import textwrap

from repro.analysis.dims import check_module
from repro.analysis.lint.rules import ALL_RULES, DIMS_RULES
from repro.analysis.lint.engine import run_rules


def lint_snippet(tmp_path, rel, source, select=None):
    f = tmp_path / rel
    f.parent.mkdir(parents=True, exist_ok=True)
    f.write_text(textwrap.dedent(source))
    return run_rules([tmp_path], ALL_RULES, select=select)


def dims_codes(violations):
    return [v.rule for v in violations if v.rule in ("REP010", "REP011")]


class TestSeededBugCorpus:
    """Each distinct planted unit bug must be flagged with its exact rule."""

    def test_cross_dimension_add(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/core/bug_add.py",
            """
            def headroom(cap_w, energy_est_j):
                return cap_w + energy_est_j
            """,
        )
        assert dims_codes(vs) == ["REP010"]
        assert "watts" in vs[0].message and "joules" in vs[0].message

    def test_cross_dimension_compare(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/core/bug_cmp.py",
            """
            def over(total_j, cap_w):
                return total_j > cap_w
            """,
        )
        assert dims_codes(vs) == ["REP010"]

    def test_wall_native_mixed(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/engine/bug_clock.py",
            """
            def lateness(deadline_wall_s, finish_native_s):
                return finish_native_s - deadline_wall_s
            """,
        )
        assert dims_codes(vs) == ["REP011"]
        assert "wall_from_native" in vs[0].message

    def test_speed_scale_wrong_direction(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/engine/bug_dir.py",
            """
            def to_wall(makespan_native_s, speed_scale):
                return makespan_native_s * speed_scale
            """,
        )
        assert dims_codes(vs) == ["REP011"]

    def test_speed_scale_applied_twice(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/service/bug_twice.py",
            """
            def report(finish_wall_s, speed_scale):
                return finish_wall_s / speed_scale
            """,
        )
        assert dims_codes(vs) == ["REP011"]
        assert "already converted" in vs[0].message

    def test_power_scale_applied_twice(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/core/bug_pscale.py",
            """
            from repro.units import scaled_power_w

            def node_draw(power_w, power_scale):
                scaled = scaled_power_w(power_w, power_scale)
                return scaled * power_scale
            """,
        )
        assert dims_codes(vs) == ["REP010"]
        assert "applied twice" in vs[0].message

    def test_product_mislabeled_as_watts(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/core/bug_label.py",
            """
            def account(power_w, dt_s):
                total_w = power_w * dt_s
                return total_w
            """,
        )
        assert dims_codes(vs) == ["REP010"]
        assert "joules" in vs[0].message

    def test_swapped_conversion_arguments(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/engine/bug_swap.py",
            """
            from repro.units import energy_j

            def spent(power_w, dt_s):
                return energy_j(dt_s, power_w)
            """,
        )
        assert dims_codes(vs) == ["REP010", "REP010"]

    def test_wall_passed_as_native(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/service/bug_pass.py",
            """
            from repro.units import wall_from_native

            def convert(backlog_wall_s, speed_scale):
                return wall_from_native(backlog_wall_s, speed_scale)
            """,
        )
        assert dims_codes(vs) == ["REP011"]

    def test_return_contradicts_declared_dimension(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/core/bug_ret.py",
            """
            from repro.units import Seconds

            def slack_s(cap_w: float) -> Seconds:
                return cap_w
            """,
        )
        assert dims_codes(vs) == ["REP010"]
        assert "returned as" in vs[0].message

    def test_min_across_dimensions(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/core/bug_min.py",
            """
            def tightest(cap_w, deadline_s):
                return min(cap_w, deadline_s)
            """,
        )
        assert dims_codes(vs) == ["REP010"]

    def test_frequency_mixed_with_time(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/hardware/bug_freq.py",
            """
            def drift(f_ghz, dt_s):
                return f_ghz - dt_s
            """,
        )
        assert dims_codes(vs) == ["REP010"]


class TestInterprocedural:
    def test_call_site_checked_against_local_signature(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/core/bug_call.py",
            """
            def admit(cap_w):
                return cap_w

            def drive(energy_est_j):
                return admit(energy_est_j)
            """,
        )
        assert dims_codes(vs) == ["REP010"]

    def test_tuple_return_annotation_flows_to_unpacking(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/core/bug_tuple.py",
            """
            from repro.units import Hertz, Seconds

            def best(uid) -> tuple[Hertz, Seconds]:
                return 1.0, 2.0

            def use(uid, cap_w):
                f, t = best(uid)
                return t + cap_w
            """,
        )
        assert dims_codes(vs) == ["REP010"]

    def test_foreign_receiver_is_not_checked_against_local_sig(self, tmp_path):
        # Facades mirror an inner surface with converted units
        # (FleetSession vs ServiceSession `submit`); a non-self receiver
        # must not be checked against the same-module signature of the
        # same name.
        vs = lint_snippet(
            tmp_path,
            "src/repro/service/facade.py",
            """
            class Facade:
                def submit(self, job, at_wall_s, speed_scale):
                    native = at_wall_s * speed_scale
                    return self.inner_session.submit(job, native)
            """,
        )
        assert dims_codes(vs) == []

    def test_self_receiver_is_checked(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/core/bug_self.py",
            """
            class Governor:
                def admit(self, cap_w):
                    return cap_w

                def drive(self, energy_est_j):
                    return self.admit(energy_est_j)
            """,
        )
        assert dims_codes(vs) == ["REP010"]

    def test_conflicting_signatures_disable_checking(self, tmp_path):
        # Two same-named callables with different dims: AMBIGUOUS, so the
        # call site is not checked (no checking beats wrong checking).
        vs = lint_snippet(
            tmp_path,
            "src/repro/core/ambig.py",
            """
            class A:
                def cost(self, cap_w):
                    return cap_w

            class B:
                def cost(self, dt_s):
                    return dt_s

            def drive(energy_est_j):
                return cost(energy_est_j)
            """,
        )
        assert dims_codes(vs) == []


class TestNegatives:
    """Sound code and unknown dimensions stay silent."""

    def test_sanctioned_conversions_are_clean(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/core/ok_conv.py",
            """
            from repro.units import energy_j, wall_from_native

            def spent(power_w, dt_s):
                return energy_j(power_w, dt_s)

            def to_wall(makespan_native_s, speed_scale):
                return wall_from_native(makespan_native_s, speed_scale)
            """,
        )
        assert dims_codes(vs) == []

    def test_correctly_labeled_product(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/core/ok_label.py",
            """
            def account(power_w, dt_s):
                total_j = power_w * dt_s
                return total_j
            """,
        )
        assert dims_codes(vs) == []

    def test_generic_seconds_compatible_with_both_flavors(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/engine/ok_flavor.py",
            """
            def pad(deadline_wall_s, dt_s, warmup_native_s, eps_s):
                return (deadline_wall_s + dt_s, warmup_native_s + eps_s)
            """,
        )
        assert dims_codes(vs) == []

    def test_bicriteria_exchange_rate_is_sound(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/core/ok_rho.py",
            """
            MAKESPAN_ENERGY_RHO = 1.0

            def score(makespan_s, energy_j):
                return makespan_s + MAKESPAN_ENERGY_RHO * energy_j
            """,
        )
        assert dims_codes(vs) == []

    def test_unknown_dimensions_stay_silent(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/core/ok_unknown.py",
            """
            def blend(alpha, beta):
                return alpha + beta
            """,
        )
        assert dims_codes(vs) == []

    def test_ratio_of_times_is_dimensionless(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/core/ok_ratio.py",
            """
            def speedup(base_s, new_s, count):
                return base_s / new_s + count
            """,
        )
        assert dims_codes(vs) == []

    def test_bare_short_names_carry_no_convention(self, tmp_path):
        # A lone `s` is usually a FrequencySetting, not seconds; `_w` has
        # no stem.  Neither may be assigned a dimension.
        vs = lint_snippet(
            tmp_path,
            "src/repro/core/ok_bare.py",
            """
            def pick(s, _w, cap_w):
                return s if _w else cap_w
            """,
        )
        assert dims_codes(vs) == []


class TestSuppressions:
    """# repro: noqa edge cases against the dims rules."""

    BUGGY = """
        def headroom(cap_w, energy_est_j, finish_wall_s, t_native_s):
            a = cap_w + energy_est_j{noqa1}
            b = finish_wall_s - t_native_s{noqa2}
            return a, b
    """

    def _lint(self, tmp_path, noqa1="", noqa2=""):
        return lint_snippet(
            tmp_path,
            "src/repro/core/sup.py",
            self.BUGGY.format(noqa1=noqa1, noqa2=noqa2),
        )

    def test_unsuppressed_baseline(self, tmp_path):
        assert dims_codes(self._lint(tmp_path)) == ["REP010", "REP011"]

    def test_single_code_suppression(self, tmp_path):
        vs = self._lint(
            tmp_path, noqa1="  # repro: noqa REP010 -- corpus fixture"
        )
        assert dims_codes(vs) == ["REP011"]

    def test_comma_separated_multi_rule_list(self, tmp_path):
        vs = self._lint(
            tmp_path,
            noqa1="  # repro: noqa REP010, REP011 -- corpus fixture",
            noqa2="  # repro: noqa REP011,REP010 -- corpus fixture",
        )
        assert dims_codes(vs) == []

    def test_case_insensitive_codes(self, tmp_path):
        vs = self._lint(
            tmp_path,
            noqa1="  # repro: noqa rep010 -- corpus fixture",
            noqa2="  # REPRO: NOQA Rep011 -- corpus fixture",
        )
        assert dims_codes(vs) == []

    def test_bare_noqa_suppresses_dims_rules(self, tmp_path):
        vs = self._lint(
            tmp_path,
            noqa1="  # repro: noqa -- corpus fixture",
            noqa2="  # repro: noqa -- corpus fixture",
        )
        assert dims_codes(vs) == []

    def test_wrong_code_does_not_suppress(self, tmp_path):
        vs = self._lint(
            tmp_path, noqa1="  # repro: noqa REP011 -- wrong rule cited"
        )
        assert dims_codes(vs) == ["REP010", "REP011"]

    def test_comment_line_above_suppresses(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/core/sup_above.py",
            """
            def headroom(cap_w, energy_est_j):
                # repro: noqa REP010 -- corpus fixture
                return cap_w + energy_est_j
            """,
        )
        assert dims_codes(vs) == []


class TestRuleEngineIntegration:
    def test_select_runs_only_dims_rules(self, tmp_path):
        vs = lint_snippet(
            tmp_path,
            "src/repro/core/sel.py",
            """
            import random

            def bad(cap_w, energy_est_j):
                return cap_w + energy_est_j
            """,
            select=["REP010", "REP011"],
        )
        assert [v.rule for v in vs] == ["REP010"]

    def test_dims_rules_are_registered(self):
        codes = {r.code for r in ALL_RULES}
        assert {"REP010", "REP011"} <= codes
        assert {r.code for r in DIMS_RULES} == {"REP010", "REP011"}
        for rule in DIMS_RULES:
            assert rule.rationale.strip()

    def test_check_module_reports_lines(self, tmp_path):
        import ast

        src = "def f(cap_w, energy_est_j):\n    return cap_w + energy_est_j\n"
        findings = check_module(ast.parse(src))
        assert [f.code for f in findings] == ["REP010"]
        assert findings[0].node.lineno == 2

    def test_repo_sources_are_dimensionally_clean(self):
        """The shipped tree itself must check clean (justified noqa only)."""
        vs = run_rules(["src"], DIMS_RULES)
        assert vs == [], "\n".join(v.render() for v in vs)
