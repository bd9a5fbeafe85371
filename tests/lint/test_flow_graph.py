"""Unit tests for the flow layer's building blocks: summary extraction,
call-graph resolution, and the dataflow driver."""

import ast

from repro.lint.flow.dataflow import (
    WEIGHT_CAP,
    entry_locks,
    reaches_with_witness,
    transitive_weights,
)
from repro.lint.flow.graph import CallGraph, ModuleSummary, extract_summary


def summarize(module: str, source: str) -> ModuleSummary:
    return extract_summary(
        module=module,
        path=f"{module.replace('.', '/')}.py",
        source=source,
        tree=ast.parse(source),
        is_pkg=False,
    )


def graph_of(**modules: str) -> CallGraph:
    return CallGraph({m: summarize(m, src) for m, src in modules.items()})


class TestSummaryExtraction:
    def test_functions_and_methods_get_qualified_ids(self):
        s = summarize(
            "repro.m",
            "def f():\n    pass\n\nclass C:\n    def g(self):\n        pass\n",
        )
        quals = {fn.qual for fn in s.functions}
        assert quals == {"f", "C.g"}

    def test_deadline_params_and_spends_are_recorded(self):
        s = summarize(
            "repro.m",
            "from repro.runtime import Deadline\n"
            "def f(budget_s):\n"
            "    a = Deadline(5.0)\n"
            "    b = Deadline(budget_s)\n"
            "    c = Deadline(a.remaining)\n",
        )
        (fn,) = s.functions
        assert fn.has_deadline_param
        assert [derived for _l, _c, derived in fn.spends] == [False, True, True]

    def test_guarded_by_comment_binds_to_the_assignment(self):
        s = summarize(
            "repro.m",
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0  # guarded-by: _lock\n",
        )
        (cls,) = s.classes
        assert cls.guarded == (("_n", "_lock"),)


class TestCallGraphResolution:
    def test_module_local_and_imported_calls_resolve(self):
        g = graph_of(
            **{
                "repro.a": "def helper():\n    pass\n",
                "repro.b": (
                    "from repro.a import helper\n"
                    "def caller():\n"
                    "    helper()\n"
                    "    local()\n"
                    "def local():\n"
                    "    pass\n"
                ),
            }
        )
        targets = {
            t for e in g.edges["repro.b:caller"] for t in e.targets
        }
        assert targets == {"repro.a:helper", "repro.b:local"}

    def test_receiver_annotation_dispatch_includes_overrides(self):
        g = graph_of(
            **{
                "repro.base": (
                    "class Base:\n"
                    "    def work(self):\n"
                    "        pass\n"
                    "class Sub(Base):\n"
                    "    def work(self):\n"
                    "        pass\n"
                    "def drive(obj: Base):\n"
                    "    obj.work()\n"
                ),
            }
        )
        targets = {
            t for e in g.edges["repro.base:drive"] for t in e.targets
        }
        assert targets == {"repro.base:Base.work", "repro.base:Sub.work"}

    def test_unresolved_dynamic_calls_have_no_targets(self):
        g = graph_of(
            **{"repro.a": "def f(cb):\n    cb()\n    unknown_name()\n"}
        )
        targets = [t for e in g.edges["repro.a:f"] for t in e.targets]
        assert targets == []


class TestDataflow:
    def test_reaches_is_transitive_across_modules(self):
        g = graph_of(
            **{
                "repro.runtime": "def checkpoint(stage):\n    pass\n",
                "repro.a": (
                    "from repro.runtime import checkpoint\n"
                    "def inner():\n"
                    "    checkpoint('x')\n"
                ),
                "repro.b": (
                    "from repro.a import inner\n"
                    "def outer():\n"
                    "    inner()\n"
                ),
            }
        )
        covered = reaches_with_witness(g, {"repro.a:inner": "checkpoint"})
        assert {"repro.a:inner", "repro.b:outer"} <= set(covered)

    def test_witness_chain_names_the_path(self):
        g = graph_of(
            **{
                "repro.a": (
                    "def low(conn):\n"
                    "    conn.recv()\n"
                    "def mid(conn):\n"
                    "    low(conn)\n"
                ),
            }
        )
        witness = reaches_with_witness(g, {"repro.a:low": ".recv()"})
        assert "low" in witness["repro.a:mid"]

    def test_transitive_weights_saturate_on_recursion(self):
        g = graph_of(
            **{
                "repro.a": (
                    "def f(n):\n"
                    "    if n:\n"
                    "        f(n - 1)\n"
                ),
            }
        )
        assert transitive_weights(g)["repro.a:f"] == WEIGHT_CAP

    def test_entry_locks_intersect_over_call_sites(self):
        g = graph_of(
            **{
                "repro.a": (
                    "import threading\n"
                    "class C:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "    def helper(self):\n"
                    "        pass\n"
                    "    def locked(self):\n"
                    "        with self._lock:\n"
                    "            self.helper()\n"
                    "    def unlocked(self):\n"
                    "        self.helper()\n"
                ),
            }
        )
        token = ("repro.a:C", "_lock")
        universe = frozenset([token])

        def canonical(caller, edge):
            return frozenset(
                token for _recv, attr in edge.site.locks
                for token in [("repro.a:C", attr)]
            )

        entry = entry_locks(g, universe, canonical)
        # helper is entered both with and without the lock -> intersection
        # is empty; locked/unlocked are entry points -> nothing held.
        assert entry["repro.a:C.helper"] == frozenset()
        assert entry["repro.a:C.locked"] == frozenset()
