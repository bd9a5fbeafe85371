"""Meta-test: every public item carries a doc comment.

The deliverable contract requires doc comments on every public item;
this test enforces it mechanically, so documentation can't silently rot.
"""

import importlib
import inspect

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.geometry",
    "repro.hilbert",
    "repro.rtree",
    "repro.join",
    "repro.datasets",
    "repro.sampling",
    "repro.histograms",
    "repro.core",
    "repro.eval",
    "repro.service",
    "repro.perf",
    "repro.serve",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_public_items_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
            if inspect.isclass(obj):
                for attr_name, attr in vars(obj).items():
                    if attr_name.startswith("_"):
                        continue
                    if inspect.isfunction(attr) and not (
                        attr.__doc__ and attr.__doc__.strip()
                    ):
                        undocumented.append(f"{name}.{attr_name}")
    assert not undocumented, f"{module_name}: missing docstrings on {undocumented}"
