"""Per-rule tests against the fixture corpus under ``fixtures/``.

Each fixture file mirrors the ``repro`` package shape (the rules decide
applicability by dotted module name, recovered from the ``__init__.py``
chain), holds known violations at known lines, and is linted by passing
its path explicitly — tree-wide runs skip ``fixtures`` directories.
"""

from collections import defaultdict
from pathlib import Path

import pytest

from repro.lint import RULES, lint_file, run_lint
from repro.lint.context import module_name_for
from repro.lint.flow.rules import FLOW_RULES

FIXTURES = Path(__file__).parent / "fixtures"
PKG = FIXTURES / "repro"


def rules_hit(path, rule=None):
    """``(rule, line)`` of every diagnostic, or of ``rule``'s alone."""
    return [(d.rule, d.line) for d in lint_file(path) if rule in (None, d.rule)]


class TestModuleIdentity:
    def test_fixture_tree_maps_to_repro_modules(self):
        assert module_name_for(PKG / "histograms" / "clean.py") == "repro.histograms.clean"
        assert module_name_for(PKG / "__init__.py") == "repro"

    def test_file_outside_any_package_has_no_module(self, tmp_path):
        loose = tmp_path / "loose.py"
        loose.write_text("x = 1\n")
        assert module_name_for(loose) == ""

    def test_rules_do_not_apply_outside_repro(self, tmp_path):
        loose = tmp_path / "loose.py"
        loose.write_text("import numpy as np\nx = np.random.uniform()\n")
        assert lint_file(loose) == []


class TestR001GlobalRNG:
    def test_flags_global_rng_calls_only(self):
        hits = rules_hit(PKG / "histograms" / "r001_global_rng.py")
        assert hits == [("R001", 9), ("R001", 10), ("R001", 11)]

    def test_messages_name_the_offending_call(self):
        diags = lint_file(PKG / "histograms" / "r001_global_rng.py")
        assert "np.random.uniform" in diags[0].message
        assert "random.choice" in diags[2].message


class TestR003ErrorTaxonomy:
    def test_flags_unapproved_raises(self):
        hits = rules_hit(PKG / "core" / "r003_raises.py")
        assert hits == [("R003", 10), ("R003", 12), ("R003", 14), ("R003", 15)]

    def test_live_taxonomy_is_derived_from_errors_py(self):
        # The real tree raises its own taxa freely: repro/runtime.py
        # raises EstimationTimeout, discovered from repro/errors.py.
        src = Path(__file__).parents[2] / "src" / "repro" / "runtime.py"
        assert rules_hit(src, "R003") == []


class TestR004ExplicitDtype:
    def test_flags_dtypeless_constructors(self):
        hits = rules_hit(PKG / "histograms" / "r004_missing_dtype.py")
        assert hits == [("R004", 7), ("R004", 8), ("R004", 9), ("R004", 10)]

    def test_positional_dtype_counts_as_explicit(self):
        diags = lint_file(PKG / "histograms" / "r004_missing_dtype.py")
        assert all(d.line < 14 for d in diags)


class TestR005BroadExcept:
    def test_flags_swallowing_handlers(self):
        hits = rules_hit(PKG / "histograms" / "r005_broad_except.py")
        assert hits == [("R005", 7), ("R005", 14), ("R005", 21)]

    def test_reraising_cleanup_handler_is_exempt(self):
        diags = lint_file(PKG / "histograms" / "r005_broad_except.py")
        assert all(d.line != 28 for d in diags)


class TestR007WallClock:
    def test_flags_wall_clock_call_and_from_import(self):
        hits = rules_hit(PKG / "core" / "r007_wall_clock.py")
        assert hits == [("R007", 4), ("R007", 10)]

    def test_perf_counter_and_unrelated_dotted_time_are_clean(self):
        diags = lint_file(PKG / "core" / "r007_wall_clock.py")
        assert all(d.line in (4, 10) for d in diags)

    def test_live_tree_timing_code_is_clean(self):
        # The estimator's timing breakdown is perf_counter-based.
        src = Path(__file__).parents[2] / "src" / "repro" / "sampling" / "estimator.py"
        assert rules_hit(src, "R007") == []


class TestSuppressions:
    def test_suppressed_file_is_clean(self):
        assert rules_hit(PKG / "histograms" / "suppressed.py") == []

    def test_suppression_is_rule_specific(self):
        # The same directives must not hide a different rule.
        diags = lint_file(PKG / "histograms" / "r001_global_rng.py")
        assert [d for d in diags if d.rule != "R001"] == []  # nothing else there
        source = (PKG / "histograms" / "suppressed.py").read_text()
        assert "disable=R001" in source and "disable=R004" in source

    def test_trailing_disable_file_degrades_to_same_line_scope(self, tmp_path):
        # A disable-file typed where a disable was meant (trailing a
        # statement) must not blank the rule for the whole file: it only
        # suppresses the line it sits on.
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        mod = pkg / "mod.py"
        mod.write_text(
            "def f():\n"
            "    try:\n"
            "        pass\n"
            "    except Exception:  # repro-lint: disable-file=R005\n"
            "        pass\n"
            "    try:\n"
            "        pass\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert rules_hit(mod, "R005") == [("R005", 8)]


class TestR008BlockingSleep:
    def test_flags_direct_aliased_and_async_sleeps(self):
        hits = rules_hit(PKG / "service" / "r008_sleeps.py")
        assert hits == [("R008", 9), ("R008", 13), ("R008", 19), ("R008", 25)]

    def test_async_violation_points_at_asyncio_sleep(self):
        diags = lint_file(PKG / "service" / "r008_sleeps.py")
        async_hits = [d for d in diags if d.line == 25]
        assert len(async_hits) == 1
        assert "asyncio.sleep" in async_hits[0].message
        assert "event loop" in async_hits[0].message

    def test_sanctioned_backoff_site_is_exempt(self):
        hits = rules_hit(PKG / "service" / "resilient.py")
        assert hits == [("R008", 14)]  # helper_pause only; _backoff is clean

    def test_live_resilient_and_faults_modules_are_clean(self):
        src = Path(__file__).resolve().parents[2] / "src" / "repro" / "service"
        assert rules_hit(src / "resilient.py", "R008") == []
        assert rules_hit(src / "faults.py", "R008") == []


class TestR009SingleWriter:
    def test_flags_stray_writers_at_exact_lines(self):
        hits = rules_hit(PKG / "perf" / "r009_persistence.py")
        assert hits == [
            ("R009", 9), ("R009", 10), ("R009", 11),
            ("R009", 15), ("R009", 19), ("R009", 24),
        ]

    def test_messages_point_at_the_catalog(self):
        diags = lint_file(PKG / "perf" / "r009_persistence.py")
        assert "np.save" in diags[0].message
        assert "repro.store" in diags[0].message
        assert "pickle.dump" in diags[3].message
        assert "tmp-write/fsync/rename" in diags[4].message

    def test_sanctioned_store_module_is_exempt(self):
        assert rules_hit(PKG / "store" / "writer.py", "R009") == []

    def test_live_src_tree_is_clean(self):
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        for name in ("eval/report.py", "serve/loop.py", "perf/cache.py"):
            assert rules_hit(src / name, "R009") == []


class TestCleanFixtureAndParseErrors:
    def test_clean_fixture_produces_no_diagnostics(self):
        assert rules_hit(PKG / "histograms" / "clean.py") == []

    def test_parse_error_is_reported_not_raised(self):
        diags = lint_file(FIXTURES / "parse_error.py")
        assert [d.rule for d in diags] == ["E001"]
        assert diags[0].line == 1


class TestRegistry:
    def test_all_domain_rules_registered(self):
        assert sorted(RULES) == [
            "R001", "R003", "R004", "R005", "R007", "R008", "R009",
        ]

    def test_rule_metadata_complete(self):
        for rule in RULES.values():
            assert rule.name and rule.summary


@pytest.fixture(scope="module")
def corpus_rules_by_line():
    """The rule ids flagged at each ``(path, line)`` of the whole corpus."""
    by_line = defaultdict(set)
    for diag in run_lint([FIXTURES]).diagnostics:
        by_line[(diag.path, diag.line)].add(diag.rule)
    return by_line


@pytest.mark.parametrize("rule_id", sorted({**RULES, **FLOW_RULES}))
def test_every_rule_has_a_fixture_line_only_it_flags(rule_id, corpus_rules_by_line):
    """A rule earns its place by catching a defect no other rule sees:
    each registered rule (a new one too) needs a corpus line that it
    alone flags."""
    assert {rule_id} in corpus_rules_by_line.values()
