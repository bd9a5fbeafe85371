"""Every module under ``src/repro`` is reached from a front door.

A module that no public entry point imports is code the project carries
without using.  This test walks ``import`` / ``from ... import`` edges in
the source (AST only; nothing is imported) from the front doors:

* the names in ``repro.__all__``, ``repro.serve.__all__`` and
  ``repro.service.__all__``;
* the ``python -m`` entry points of ``repro.eval``, ``repro.store`` and
  ``repro.lint``;
* ``perfbench/*.py``, ``examples/*.py`` and the benchmark scripts CI
  runs.

A name imported from a package is followed through the package's
``__init__`` re-export to the module that defines it, and ``pkg.attr``
uses of an imported package are followed the same way.  A package
``__init__``'s own imports are never followed: they re-export
everything, so following them would reach every module.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

EXPORTING_PACKAGES = ("repro", "repro.serve", "repro.service")
ENTRY_MODULES = ("repro.eval.__main__", "repro.store.__main__", "repro.lint.__main__")
SCRIPTS = (
    *sorted((ROOT / "perfbench").glob("*.py")),
    *sorted((ROOT / "examples").glob("*.py")),
    ROOT / "benchmarks" / "make_golden_corpus.py",
)

#: Modules kept although no front door reaches them, each with its reason.
ALLOWLIST: dict[str, str] = {}


def _path(module: str) -> Optional[Path]:
    base = SRC.joinpath(*module.split("."))
    for candidate in (base / "__init__.py", base.with_suffix(".py")):
        if candidate.is_file():
            return candidate
    return None


def _is_package(module: str) -> bool:
    path = _path(module)
    return path is not None and path.name == "__init__.py"


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _source(module: Optional[str], node: ast.ImportFrom) -> Optional[str]:
    """The absolute module a ``from`` import reads from."""
    if not node.level:
        return node.module
    if module is None:
        return None
    base = module.split(".")
    if not _is_package(module):
        base = base[:-1]
    base = base[: len(base) - node.level + 1]
    return ".".join([*base, node.module] if node.module else base)


def _ours(module: Optional[str]) -> bool:
    return module is not None and (module == "repro" or module.startswith("repro."))


def _attribute_chain(node: ast.Attribute) -> list[str]:
    chain: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        chain.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return []
    chain.append(current.id)
    return chain[::-1]


class _Walker:
    def __init__(self) -> None:
        self.reached: set[str] = set()
        self._resolved: set[tuple[str, str]] = set()
        self._todo: list[str] = []

    def reach(self, module: str) -> None:
        if module in self.reached or _path(module) is None:
            return
        self.reached.add(module)
        if not _is_package(module):
            self._todo.append(module)

    def resolve(self, module: str, name: str) -> None:
        """Reach what ``from <module> import <name>`` binds."""
        if (module, name) in self._resolved:
            return
        self._resolved.add((module, name))
        submodule = f"{module}.{name}"
        if _path(submodule) is not None:
            self.reach(submodule)
            return
        self.reach(module)
        if not _is_package(module):
            return
        for node in _tree(_path(module)).body:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        self.resolve(_source(module, node), alias.name)
                        return

    def follow(self, module: str, attrs: list[str]) -> None:
        """Reach what ``module.attr1.attr2...`` names."""
        for attr in attrs:
            if not _is_package(module):
                return
            if _path(f"{module}.{attr}") is None:
                self.resolve(module, attr)
                return
            module = f"{module}.{attr}"
            self.reach(module)

    def scan(self, tree: ast.Module, module: Optional[str]) -> None:
        bound: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _ours(alias.name):
                        self.reach(alias.name)
                        local = alias.asname or alias.name.split(".")[0]
                        bound[local] = alias.name if alias.asname else local
            elif isinstance(node, ast.ImportFrom):
                source = _source(module, node)
                if _ours(source):
                    for alias in node.names:
                        self.resolve(source, alias.name)
                        if _path(f"{source}.{alias.name}") is not None:
                            bound[alias.asname or alias.name] = f"{source}.{alias.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                chain = _attribute_chain(node)
                if chain and chain[0] in bound:
                    self.follow(bound[chain[0]], chain[1:])

    def run(self) -> set[str]:
        for package in EXPORTING_PACKAGES:
            for name in _exported(package):
                self.resolve(package, name)
        for module in ENTRY_MODULES:
            self.reach(module)
        for script in SCRIPTS:
            self.scan(_tree(script), None)
        while self._todo:
            module = self._todo.pop()
            self.scan(_tree(_path(module)), module)
        return self.reached


def _exported(package: str) -> list[str]:
    for node in _tree(_path(package)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"{package} has no literal __all__")


def _modules() -> set[str]:
    """Every non-package module under ``src/repro``."""
    return {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }


def test_every_module_is_reached_from_a_front_door():
    for script in SCRIPTS:
        assert script.is_file(), script
    modules = _modules()
    reached = _Walker().run()
    unreached = sorted(modules - reached - set(ALLOWLIST))
    assert not unreached, (
        "no front door imports these modules; delete them or add an "
        f"ALLOWLIST entry with a reason: {unreached}"
    )
    stale = sorted(name for name in ALLOWLIST if name not in modules or name in reached)
    assert not stale, f"ALLOWLIST entries that are reached or gone: {stale}"
