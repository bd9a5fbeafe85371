"""Interprocedural rules (R010–R012, R014) against the flow fixture corpus.

The corpus under ``fixtures/flow`` is its own miniature ``repro``
package tree (module identity comes from the ``__init__.py`` chain), so
one whole-program run covers every rule: each case file holds known
violations at known lines plus negative shapes that must stay silent.
"""

from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.flow.rules import FLOW_RULES

FLOW_FIXTURES = Path(__file__).parent / "fixtures" / "flow"


@pytest.fixture(scope="module")
def flow_report():
    return run_lint([FLOW_FIXTURES])


def hits(report, rule_id):
    return sorted(
        (Path(d.path).name, d.line)
        for d in report.diagnostics
        if d.rule == rule_id
    )


class TestRegistry:
    def test_flow_rule_ids(self):
        assert sorted(FLOW_RULES) == ["R010", "R011", "R012", "R014"]

    def test_ids_do_not_collide_with_perfile_rules(self):
        from repro.lint import RULES

        assert not set(RULES) & set(FLOW_RULES)


class TestR010CheckpointReachability:
    def test_flags_exactly_the_uncovered_loops(self, flow_report):
        assert hits(flow_report, "R010") == [
            ("r010_cases.py", 39),  # uncovered_local
            ("r010_cases.py", 55),  # uncovered_through_helper
        ]

    def test_lexical_and_callee_cover_are_silent(self, flow_report):
        lines = [line for name, line in hits(flow_report, "R010")]
        assert 16 not in lines  # local_cover's loop
        assert 31 not in lines  # helper_cover's loop

    def test_messages_explain_the_reachability_contract(self, flow_report):
        msgs = [d.message for d in flow_report.diagnostics if d.rule == "R010"]
        assert all("checkpoint" in m for m in msgs)


#: The two loop shapes R010 must flag without any callee in play: a
#: long body with no checkpoint (line 6), and a long body whose function
#: checkpoints only before and after the loop (line 22).
LONG_LOOPS = """\
from ..runtime import checkpoint


def build(cells):
    total = 0
    for cell in cells:
        a = cell + 1
        b = a * 2
        c = b - 3
        d = c * c
        e = d + a
        f = e - b
        g = f + c
        h = g * d
        total += h
    return total


def build_outer_checkpoint(cells):
    checkpoint("outer")
    total = 0
    for cell in cells:
        a = cell + 1
        b = a * 2
        c = b - 3
        d = c * c
        e = d + a
        f = e - b
        g = f + c
        h = g * d
        total += h
    checkpoint("outer")
    return total
"""


@pytest.fixture
def long_loops_report(tmp_path):
    repro = tmp_path / "repro"
    (repro / "histograms").mkdir(parents=True)
    (repro / "__init__.py").write_text("")
    (repro / "histograms" / "__init__.py").write_text("")
    (repro / "runtime.py").write_text("def checkpoint(stage):\n    pass\n")
    (repro / "histograms" / "long_loops.py").write_text(LONG_LOOPS)
    return run_lint([tmp_path])


class TestR010LexicalShapes:
    def test_flags_long_uncovered_loop(self, long_loops_report):
        assert ("long_loops.py", 6) in hits(long_loops_report, "R010")

    def test_checkpoint_outside_the_loop_is_not_coverage(self, long_loops_report):
        # A checkpoint before or after the loop runs a bounded number of
        # times; it never makes the loop itself preemptible.
        assert ("long_loops.py", 22) in hits(long_loops_report, "R010")


class TestR011AsyncBlocking:
    def test_direct_and_transitive_blocking_flagged(self, flow_report):
        assert hits(flow_report, "R011") == [
            ("r011_cases.py", 22),  # np.load in direct_block
            ("r011_cases.py", 27),  # _sync_recv pipe wait
        ]

    def test_executor_hop_and_async_callee_are_silent(self, flow_report):
        lines = [line for name, line in hits(flow_report, "R011")]
        assert 33 not in lines  # run_in_executor hop
        assert 38 not in lines  # await of an async callee

    def test_transitive_message_names_the_helper_and_primitive(self, flow_report):
        transitive = [
            d for d in flow_report.diagnostics
            if d.rule == "R011" and d.line == 27
        ]
        assert len(transitive) == 1
        assert "_sync_recv" in transitive[0].message
        assert "pipe wait" in transitive[0].message


class TestR012GuardedBy:
    def test_unlocked_read_and_unlocked_entry_path_flagged(self, flow_report):
        assert hits(flow_report, "R012") == [
            ("r012_cases.py", 27),  # racy_read
            ("r012_cases.py", 30),  # _bump_locked via racy_entry
            ("r012_cases.py", 67),  # Tally.add_held via Stranger.count
        ]

    def test_locked_paths_are_silent(self, flow_report):
        names = {name for name, _line in hits(flow_report, "R012")}
        # Disciplined: every caller holds the lock -> no diagnostics at all
        msgs = [d.message for d in flow_report.diagnostics if d.rule == "R012"]
        assert all("Disciplined" not in m for m in msgs)
        assert names == {"r012_cases.py"}

    def test_lock_handed_over_with_lock_keyword_is_held(self, flow_report):
        """``Sharing`` builds ``Tally(lock=self._lock)``, so its probe
        holds ``Tally.lock``; only ``Stranger``'s unshared lock leaves
        ``add_held`` unguarded."""
        msgs = [d.message for d in flow_report.diagnostics if d.rule == "R012"]
        assert sum("Tally.add_held" in m for m in msgs) == 1


class TestR014DeadlineSingleSpend:
    def test_carrier_respend_and_downstream_spend_flagged(self, flow_report):
        assert hits(flow_report, "R014") == [
            ("r014_cases.py", 26),  # run: type A
            ("r014_cases.py", 32),  # finish: type B
        ]

    def test_entry_derived_and_cycle_origin_are_silent(self, flow_report):
        lines = [line for name, line in hits(flow_report, "R014")]
        assert 15 not in lines  # entry-point spend
        assert 21 not in lines  # Deadline(budget_s) — derived
        assert 38 not in lines  # cycle_entry — origin of its own chain


class TestSuppressionInterplay:
    """Flow diagnostics honor only the *diagnostic's own* file and line."""

    def test_caller_side_disable_does_not_silence_callee_loop(self, flow_report):
        # caller_side_disable carries `disable=R010` on its call into
        # uncovered_local; the loop diagnostic at line 39 must survive.
        assert ("r010_cases.py", 39) in hits(flow_report, "R010")

    def test_disable_file_in_transit_module_does_not_suppress(self, flow_report):
        # r010_helpers.py is disable-file=R010 and sits on the uncovered
        # path; the diagnostic belongs to r010_cases.py and must survive.
        assert ("r010_cases.py", 55) in hits(flow_report, "R010")
        helper_hits = [
            name for name, _line in hits(flow_report, "R010")
            if name == "r010_helpers.py"
        ]
        assert helper_hits == []

    def test_disable_on_the_flagged_line_does_suppress(self, tmp_path):
        pkg = tmp_path / "repro" / "histograms"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        lines = "\n".join(f"        x{i} = v + {i}" for i in range(9))
        (pkg / "mod.py").write_text(
            "def f(values):\n"
            "    for v in values:  # repro-lint: disable=R010\n"
            f"{lines}\n"
        )
        report = run_lint([tmp_path])
        assert [d for d in report.diagnostics if d.rule == "R010"] == []
