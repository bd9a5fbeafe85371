"""Smoke tests of the top-level public API surface."""

import importlib
import pkgutil

import pytest

import repro


def _packages() -> list[str]:
    """``repro`` and every package below it, found by walking the
    source tree, so a new package is covered without editing a list."""
    found = pkgutil.walk_packages(repro.__path__, prefix="repro.")
    return ["repro", *sorted(info.name for info in found if info.ispkg)]


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("module", _packages())
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        assert len(set(mod.__all__)) == len(mod.__all__), f"duplicate entry in {module}.__all__"
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module}.{name}"


class TestQuickstartFlow:
    """The docstring quickstart must actually work."""

    def test_quickstart(self):
        from repro import GHEstimator, actual_selectivity, make_paper_pair

        ts, tcb = make_paper_pair("TS", "TCB", scale=400)
        estimate = GHEstimator(level=5).estimate(ts, tcb)
        truth = actual_selectivity(ts.rects, tcb.rects)
        assert estimate == pytest.approx(truth, rel=1.0)

    def test_catalog_flow(self):
        from repro import StatisticsCatalog, GHEstimator, make_paper_dataset

        catalog = StatisticsCatalog(GHEstimator(level=4))
        catalog.register(make_paper_dataset("SCRC", scale=400))
        catalog.register(make_paper_dataset("SURA", scale=400))
        assert catalog.estimate("SCRC", "SURA") > 0

    def test_eval_cli_importable(self):
        from repro.eval.__main__ import main

        assert callable(main)
