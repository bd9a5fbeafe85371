"""Module/call-graph extraction for the interprocedural rules.

Two layers:

* **Extraction** (:func:`extract_summary`) walks one file's AST and
  produces a :class:`ModuleSummary` — a plain-data digest of everything
  the flow rules need: the import table, per-function call sites with
  lexically-held locks, loop weights, attribute accesses with inferred
  receiver classes, ``Deadline`` constructions with derivation taint,
  and guarded-by declarations.

* **Linking** (:class:`CallGraph`) stitches the summaries of all project
  modules together: imported names resolve through each module's import
  table, methods dispatch by the receiver's *written* class annotation
  (including project-local subclass overrides), and anything dynamic
  falls back to an unresolved edge carrying only the terminal attribute
  name, which each rule treats with its own documented conservatism
  (DESIGN.md §15).

Type inference is deliberately shallow: a name's class is whatever its
annotation (or constructor call, or container-element annotation) says,
written-name identity only.  That is enough to check the invariants the
rules encode without attempting real type analysis.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from typing import Mapping, Sequence

__all__ = [
    "AttrAccess",
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "LoopInfo",
    "ModuleSummary",
    "extract_summary",
]

#: Parameter names treated as carrying a caller's deadline/budget.  A
#: ``Deadline`` built from one of these (or from any ``.remaining``
#: expression) is *derived* — it subdivides an existing budget instead of
#: spending fresh wall-clock (see R014).
DEADLINE_PARAM_NAMES = frozenset(
    {"deadline", "budget", "budget_s", "timeout", "timeout_s", "deadline_s",
     "deadline_seconds", "remaining", "remaining_s"}
)

_GUARDED_BY = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")

#: Container heads whose single payload parameter is the element type
#: (written-name level; ``dict`` uses its value type).
_ELEMENT_CONTAINERS = frozenset(
    {"list", "tuple", "set", "frozenset", "Sequence", "Iterable", "Iterator",
     "Collection", "MutableSequence", "deque"}
)


# ----------------------------------------------------------------------
# summary data model (plain data)
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CallSite:
    """One call expression inside a function body."""

    parts: tuple[str, ...] | None  #: dotted callee ("self","_call") or None
    terminal: str  #: last name of the callee expression ("" if opaque)
    recv: str | None  #: written class of the receiver for attribute calls
    line: int
    col: int
    locks: tuple[tuple[str, str], ...]  #: (receiver-class|"self", attr) held
    loop: int | None  #: index of the innermost enclosing loop, if any


@dataclass(frozen=True, slots=True)
class LoopInfo:
    """One ``for``/``while`` loop, with its lexical statement weight."""

    line: int
    col: int
    weight: int  #: recursive statement count of body + orelse
    parent: int | None  #: index of the enclosing loop, if nested


@dataclass(frozen=True, slots=True)
class AttrAccess:
    """A data-attribute load/store on a receiver of known written class."""

    recv: str  #: written class name, or "self"
    attr: str
    line: int
    col: int
    locks: tuple[tuple[str, str], ...]


@dataclass(frozen=True, slots=True)
class FunctionInfo:
    """Flow-relevant digest of one function or method."""

    qual: str  #: "f", "Cls.m", or "outer.<locals>.inner"
    cls: str | None  #: enclosing class name for methods
    is_async: bool
    has_deadline_param: bool
    weight: int  #: recursive statement count of the body
    nested: tuple[str, ...]  #: names of directly nested function defs
    calls: tuple[CallSite, ...]
    loops: tuple[LoopInfo, ...]
    accesses: tuple[AttrAccess, ...]
    spends: tuple[tuple[int, int, bool], ...]  #: Deadline() sites (ln, col, derived)

    @property
    def is_ctor(self) -> bool:
        name = self.qual.rsplit(".", 1)[-1]
        return name in ("__init__", "__post_init__", "__del__")


@dataclass(frozen=True, slots=True)
class ClassInfo:
    """Flow-relevant digest of one top-level class."""

    name: str
    bases: tuple[str, ...]  #: written base-class names
    methods: tuple[str, ...]
    guarded: tuple[tuple[str, str], ...]  #: (attr, lock-attr) declarations


@dataclass(frozen=True, slots=True)
class ModuleSummary:
    """Everything the flow layer retains about one file."""

    module: str
    path: str  #: display path (as reported in diagnostics)
    imports: Mapping[str, tuple[str, ...]]  #: local name -> dotted target
    functions: tuple[FunctionInfo, ...]
    classes: tuple[ClassInfo, ...]


# ----------------------------------------------------------------------
# shallow written-name type inference
# ----------------------------------------------------------------------

TypeRef = tuple[str | None, str | None]  # (class name, container element)

_NONE_NAMES = ("None", "NoneType")


def _ann_ref(node: ast.expr | None) -> TypeRef:
    """Written-name view of an annotation: outer class + element class."""
    if node is None:
        return (None, None)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return (None, None)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left, right = _ann_ref(node.left), _ann_ref(node.right)
        return left if left[0] not in _NONE_NAMES else right
    if isinstance(node, ast.Name):
        return (node.id, None)
    if isinstance(node, ast.Attribute):
        return (node.attr, None)
    if isinstance(node, ast.Subscript):
        head = _ann_ref(node.value)[0]
        if head == "Optional":
            return _ann_ref(node.slice)
        inner = node.slice
        if head in _ELEMENT_CONTAINERS:
            if isinstance(inner, ast.Tuple) and inner.elts:
                return (head, _ann_ref(inner.elts[0])[0])
            return (head, _ann_ref(inner)[0])
        if head in ("dict", "Mapping", "MutableMapping", "defaultdict"):
            if isinstance(inner, ast.Tuple) and len(inner.elts) == 2:
                return (head, _ann_ref(inner.elts[1])[0])
        return (head, None)
    return (None, None)


def _dotted(node: ast.expr) -> tuple[str, ...] | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return tuple(reversed(parts))


def _statement_weight(stmts: Sequence[ast.stmt]) -> int:
    return sum(
        1 for stmt in stmts for node in ast.walk(stmt) if isinstance(node, ast.stmt)
    )


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------

class _FunctionExtractor:
    """Single-pass walk of one function body."""

    def __init__(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qual: str,
        cls: "_ClassAccumulator | None",
    ) -> None:
        self.node = node
        self.qual = qual
        self.cls = cls
        self.env: dict[str, TypeRef] = {}
        self.taint: set[str] = set(DEADLINE_PARAM_NAMES)
        self.calls: list[CallSite] = []
        self.loops: list[LoopInfo] = []
        self.accesses: list[AttrAccess] = []
        self.spends: list[tuple[int, int, bool]] = []
        self.nested: list[str] = []
        self.nested_nodes: list[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]] = []
        self._lock_stack: list[tuple[str, str]] = []
        self._loop_stack: list[int] = []

    # -- local type environment -----------------------------------------

    def _bind_params(self) -> None:
        args = self.node.args
        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            self.env[a.arg] = _ann_ref(a.annotation)

    def _type_of(self, node: ast.expr) -> TypeRef:
        if isinstance(node, ast.Name):
            if node.id == "self" and self.cls is not None:
                return ("self", None)
            return self.env.get(node.id, (None, None))
        if isinstance(node, ast.Attribute):
            base = self._type_of(node.value)
            if base[0] == "self" and self.cls is not None:
                return self.cls.attr_ref(node.attr)
            return (None, None)
        if isinstance(node, ast.Subscript):
            base = self._type_of(node.value)
            return (base[1], None)
        if isinstance(node, ast.Call):
            parts = _dotted(node.func)
            if parts is not None:
                return (parts[-1], None)
            return (None, None)
        if isinstance(node, ast.Await):
            return self._type_of(node.value)
        return (None, None)

    def _bind(self, target: ast.expr, ref: TypeRef) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = ref

    def _is_deadline_derived(self, node: ast.expr) -> bool:
        """True when the expression subdivides an existing budget."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr in (
                "remaining", "remaining_s"
            ):
                return True
            if isinstance(sub, ast.Name) and sub.id in self.taint:
                return True
        return False

    # -- the walk --------------------------------------------------------

    def run(self) -> None:
        self._bind_params()
        self._walk_body(self.node.body)

    def _walk_body(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.nested.append(stmt.name)
            self.nested_nodes.append((stmt.name, stmt))
            return
        if isinstance(stmt, ast.ClassDef):
            return  # function-local classes: out of scope for the graph
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            if value is not None:
                self._walk_expr(value)
                ref = self._type_of(value)
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        self._bind(target, ref)
                        self._walk_assign_target(target)
                else:
                    if isinstance(stmt, ast.AnnAssign):
                        ann = _ann_ref(stmt.annotation)
                        ref = ann if ann[0] else ref
                    self._bind(stmt.target, ref)
                    self._walk_assign_target(stmt.target)
                if self._is_deadline_derived(value):
                    for target in (
                        stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    ):
                        if isinstance(target, ast.Name):
                            self.taint.add(target.id)
            elif isinstance(stmt, ast.AnnAssign):
                self._bind(stmt.target, _ann_ref(stmt.annotation))
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._walk_expr(stmt.iter)
            iter_ref = self._type_of(stmt.iter)
            self._bind(stmt.target, (iter_ref[1], None))
            self._enter_loop(stmt, stmt.body, stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self._walk_expr(stmt.test)
            self._enter_loop(stmt, stmt.body, stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired: list[tuple[str, str]] = []
            for item in stmt.items:
                self._walk_expr(item.context_expr)
                tok = self._lock_token(item.context_expr)
                if tok is not None:
                    acquired.append(tok)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, self._type_of(item.context_expr))
            self._lock_stack.extend(acquired)
            self._walk_body(stmt.body)
            del self._lock_stack[len(self._lock_stack) - len(acquired):]
            return
        if isinstance(stmt, ast.Try):
            self._walk_body(stmt.body)
            for handler in stmt.handlers:
                self._walk_body(handler.body)
            self._walk_body(stmt.orelse)
            self._walk_body(stmt.finalbody)
            return
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._walk_expr(stmt.exc)
            return
        if isinstance(stmt, ast.Assert):
            self._walk_expr(stmt.test)
            return
        if isinstance(stmt, ast.Delete):
            return
        # everything else (if/return/expression statements, pass, import,
        # match, ...): walk the children in order.  Imports were collected
        # module-wide; match statements would only lose type precision.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._walk_expr(child)
            elif isinstance(child, ast.stmt):
                self._walk_stmt(child)

    def _walk_assign_target(self, target: ast.expr) -> None:
        # record attribute *stores* (e.g. ``job.done = True``)
        if isinstance(target, ast.Attribute):
            self._record_access(target)
            self._walk_expr(target.value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._walk_assign_target(elt)
        elif isinstance(target, ast.Subscript):
            self._walk_expr(target.value)

    def _enter_loop(
        self,
        stmt: ast.For | ast.AsyncFor | ast.While,
        body: Sequence[ast.stmt],
        orelse: Sequence[ast.stmt],
    ) -> None:
        parent = self._loop_stack[-1] if self._loop_stack else None
        idx = len(self.loops)
        self.loops.append(
            LoopInfo(
                line=stmt.lineno,
                col=stmt.col_offset + 1,
                weight=_statement_weight(list(body)) + _statement_weight(list(orelse)),
                parent=parent,
            )
        )
        self._loop_stack.append(idx)
        self._walk_body(body)
        self._walk_body(orelse)
        self._loop_stack.pop()

    def _lock_token(self, expr: ast.expr) -> tuple[str, str] | None:
        if not isinstance(expr, ast.Attribute):
            return None
        base = self._type_of(expr.value)
        if base[0] is None:
            return None
        return (base[0], expr.attr)

    def _record_access(self, node: ast.Attribute) -> None:
        base = self._type_of(node.value)
        if base[0] is None:
            return
        self.accesses.append(
            AttrAccess(
                recv=base[0],
                attr=node.attr,
                line=node.lineno,
                col=node.col_offset + 1,
                locks=tuple(self._lock_stack),
            )
        )

    def _walk_expr(self, node: ast.expr) -> None:
        if isinstance(node, ast.Lambda):
            return  # lambda bodies run elsewhere (often in an executor)
        if isinstance(node, ast.Call):
            self._record_call(node)
            self._walk_expr(node.func)
            for arg in node.args:
                self._walk_expr(arg)
            for kw in node.keywords:
                self._walk_expr(kw.value)
            return
        if isinstance(node, ast.Attribute):
            self._record_access(node)
            self._walk_expr(node.value)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._walk_expr(child)

    def _record_call(self, node: ast.Call) -> None:
        parts = _dotted(node.func)
        terminal = ""
        recv: str | None = None
        if isinstance(node.func, ast.Attribute):
            terminal = node.func.attr
            base = self._type_of(node.func.value)
            if base[0] is not None and base[0] != "self":
                recv = base[0]
        elif isinstance(node.func, ast.Name):
            terminal = node.func.id
        if terminal == "Deadline":
            payload = list(node.args) + [kw.value for kw in node.keywords]
            derived = any(self._is_deadline_derived(a) for a in payload)
            self.spends.append((node.lineno, node.col_offset + 1, derived))
        self.calls.append(
            CallSite(
                parts=parts,
                terminal=terminal,
                recv=recv,
                line=node.lineno,
                col=node.col_offset + 1,
                locks=tuple(self._lock_stack),
                loop=self._loop_stack[-1] if self._loop_stack else None,
            )
        )


class _ClassAccumulator:
    """Collects attribute types and guarded-by declarations for a class."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.attr_refs: dict[str, TypeRef] = {}
        self.assign_lines: dict[int, str] = {}  #: source line -> attr name

    def attr_ref(self, attr: str) -> TypeRef:
        return self.attr_refs.get(attr, (None, None))

    def note_attr(self, attr: str, ref: TypeRef, line: int) -> None:
        if attr not in self.attr_refs or self.attr_refs[attr][0] is None:
            self.attr_refs[attr] = ref
        self.assign_lines.setdefault(line, attr)


def _extract_class(
    node: ast.ClassDef,
) -> tuple[_ClassAccumulator, list[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]]:
    acc = _ClassAccumulator(node.name)
    methods: list[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]] = []
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.append((stmt.name, stmt))
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            ref = _ann_ref(stmt.annotation)
            acc.note_attr(stmt.target.id, ref, stmt.lineno)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id != "__slots__":
                    acc.note_attr(target.id, (None, None), stmt.lineno)
    # second pass: ``self.x`` assignments inside methods define instance attrs
    for _name, method in methods:
        env: dict[str, TypeRef] = {}
        args = method.args
        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            env[a.arg] = _ann_ref(a.annotation)
        for stmt in ast.walk(method):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            ann: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = list(stmt.targets), stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value, ann = [stmt.target], stmt.value, stmt.annotation
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    ref: TypeRef = (None, None)
                    if ann is not None:
                        ref = _ann_ref(ann)
                    elif isinstance(value, ast.Call):
                        parts = _dotted(value.func)
                        if parts is not None:
                            ref = (parts[-1], None)
                    elif isinstance(value, ast.Name):
                        ref = env.get(value.id, (None, None))
                    acc.note_attr(target.attr, ref, stmt.lineno)
    return acc, methods


def _collect_imports(
    tree: ast.Module, module: str, is_pkg: bool
) -> dict[str, tuple[str, ...]]:
    imports: dict[str, tuple[str, ...]] = {}
    own_parts = module.split(".") if module else []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = tuple(alias.name.split("."))
                if alias.asname:
                    imports[alias.asname] = parts
                else:
                    imports.setdefault(parts[0], (parts[0],))
        elif isinstance(node, ast.ImportFrom):
            if node.level > 0:
                base = list(own_parts) if is_pkg else own_parts[:-1]
                base = base[: len(base) - (node.level - 1)] if node.level > 1 else base
                if not base:
                    continue
                target_parts = base + (node.module.split(".") if node.module else [])
            else:
                if not node.module:
                    continue
                target_parts = node.module.split(".")
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = tuple(
                    target_parts + [alias.name]
                )
    return imports


def _guarded_comments(source: str) -> dict[int, str]:
    """``line -> lock-attr`` for every ``# guarded-by:`` comment."""
    if "guarded-by" not in source:
        return {}
    out: dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                match = _GUARDED_BY.search(tok.string)
                if match:
                    out[tok.start[0]] = match.group(1)
    except (tokenize.TokenError, SyntaxError, ValueError):
        return {}
    return out


def extract_summary(
    *,
    module: str,
    path: str,
    source: str,
    tree: ast.Module,
    is_pkg: bool,
) -> ModuleSummary:
    """Digest one parsed file into its flow summary."""
    imports = _collect_imports(tree, module, is_pkg)
    guarded_lines = _guarded_comments(source)
    functions: list[FunctionInfo] = []
    classes: list[ClassInfo] = []

    def extract_fn(
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qual: str,
        cls: _ClassAccumulator | None,
    ) -> None:
        ex = _FunctionExtractor(node, qual, cls)
        ex.run()
        args = node.args
        functions.append(
            FunctionInfo(
                qual=qual,
                cls=cls.name if cls is not None else None,
                is_async=isinstance(node, ast.AsyncFunctionDef),
                has_deadline_param=any(
                    a.arg in DEADLINE_PARAM_NAMES or _ann_ref(a.annotation)[0] == "Deadline"
                    for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
                ),
                weight=_statement_weight(node.body),
                nested=tuple(ex.nested),
                calls=tuple(ex.calls),
                loops=tuple(ex.loops),
                accesses=tuple(ex.accesses),
                spends=tuple(ex.spends),
            )
        )
        for name, nested in ex.nested_nodes:
            extract_fn(nested, f"{qual}.<locals>.{name}", cls)

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            extract_fn(stmt, stmt.name, None)
        elif isinstance(stmt, ast.ClassDef):
            acc, methods = _extract_class(stmt)
            for name, method in methods:
                extract_fn(method, f"{acc.name}.{name}", acc)
            guarded = tuple(
                sorted(
                    {
                        acc.assign_lines[line]: lock
                        for line, lock in guarded_lines.items()
                        if line in acc.assign_lines
                    }.items()
                )
            )
            classes.append(
                ClassInfo(
                    name=acc.name,
                    bases=tuple(
                        b for b in (_ann_ref(base)[0] for base in stmt.bases) if b
                    ),
                    methods=tuple(name for name, _ in methods),
                    guarded=guarded,
                )
            )

    return ModuleSummary(
        module=module,
        path=path,
        imports=imports,
        functions=tuple(functions),
        classes=tuple(classes),
    )


# ----------------------------------------------------------------------
# linking
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Edge:
    """One resolved (or deliberately unresolved) call edge."""

    caller: str  #: function id "module:qual"
    site: CallSite
    targets: tuple[str, ...]  #: resolved function ids (may be empty)


class CallGraph:
    """Project-wide function registry plus resolved call edges.

    Function ids are ``"module:qualname"``.  Resolution order for a call:
    nested defs, ``self`` methods (with project-local subclass overrides),
    receiver-annotation dispatch, module-local functions, imported names,
    module-alias attributes.  Unresolvable calls keep an empty target
    tuple — each rule decides what that means (DESIGN.md §15).
    """

    def __init__(self, modules: Mapping[str, ModuleSummary]) -> None:
        self.modules = dict(modules)
        self.functions: dict[str, FunctionInfo] = {}
        self.function_module: dict[str, str] = {}
        self.classes: dict[tuple[str, str], ClassInfo] = {}
        for mod, summary in self.modules.items():
            for fn in summary.functions:
                fid = f"{mod}:{fn.qual}"
                self.functions[fid] = fn
                self.function_module[fid] = mod
            for cls in summary.classes:
                self.classes[(mod, cls.name)] = cls
        self._subclasses: dict[tuple[str, str], list[tuple[str, ClassInfo]]] = {}
        for (mod, _name), cls in list(self.classes.items()):
            for base in cls.bases:
                resolved = self.resolve_class(mod, base)
                if resolved is not None:
                    self._subclasses.setdefault(resolved, []).append((mod, cls))
        self.edges: dict[str, list[Edge]] = {}
        self.callers: dict[str, list[Edge]] = {}
        for fid in self.functions:
            self.edges[fid] = [
                Edge(fid, site, self._resolve(fid, site))
                for site in self.functions[fid].calls
            ]
            for edge in self.edges[fid]:
                for target in edge.targets:
                    self.callers.setdefault(target, []).append(edge)

    # -- name resolution -------------------------------------------------

    def resolve_class(self, module: str, written: str) -> tuple[str, str] | None:
        """Map a written class name in ``module`` to its defining module."""
        if (module, written) in self.classes:
            return (module, written)
        summary = self.modules.get(module)
        if summary is None:
            return None
        target = summary.imports.get(written)
        if target is None:
            return None
        owner, symbol = ".".join(target[:-1]), target[-1]
        if (owner, symbol) in self.classes:
            return (owner, symbol)
        return None

    def _method_id(
        self, owner: tuple[str, str], method: str, *, with_overrides: bool = True
    ) -> tuple[str, ...]:
        """Function ids implementing ``method`` on ``owner`` (searching
        project-local base classes) plus subclass overrides."""
        out: list[str] = []
        seen: set[tuple[str, str]] = set()
        stack = [owner]
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            cls = self.classes.get(key)
            if cls is None:
                continue
            if method in cls.methods:
                out.append(f"{key[0]}:{cls.name}.{method}")
            else:
                for base in cls.bases:
                    resolved = self.resolve_class(key[0], base)
                    if resolved is not None:
                        stack.append(resolved)
        if with_overrides:
            for sub_mod, sub in self._subclasses.get(owner, []):
                if method in sub.methods:
                    fid = f"{sub_mod}:{sub.name}.{method}"
                    if fid not in out:
                        out.append(fid)
        return tuple(out)

    def _resolve(self, caller: str, site: CallSite) -> tuple[str, ...]:
        """The function ids ``site`` may call (empty when unresolved)."""
        module = self.function_module[caller]
        fn = self.functions[caller]
        parts = site.parts

        # nested function defined in the caller
        if parts is not None and len(parts) == 1 and parts[0] in fn.nested:
            fid = f"{module}:{fn.qual}.<locals>.{parts[0]}"
            if fid in self.functions:
                return (fid,)

        # self.method(...)
        if (
            parts is not None
            and len(parts) == 2
            and parts[0] == "self"
            and fn.cls is not None
        ):
            return self._method_id((module, fn.cls), parts[1])

        # receiver-annotation dispatch: job.run() with job: _Job
        if site.recv is not None:
            owner = self.resolve_class(module, site.recv)
            if owner is not None:
                return self._method_id(owner, site.terminal)

        if parts is None:
            return ()

        imports = self.modules[module].imports

        # bare name: module-local function / local class / imported symbol
        if len(parts) == 1:
            candidates = [(module, parts[0])]
            target = imports.get(parts[0])
            if target is not None:
                candidates.append((".".join(target[:-1]), target[-1]))
            for owner_mod, symbol in candidates:
                resolved = self._symbol(owner_mod, symbol)
                if resolved is not None:
                    return resolved
            return ()

        # dotted: alias.func / alias.Class / package.module.func
        head = imports.get(parts[0])
        if head is not None:
            owner_mod = ".".join(head + parts[1:-1])
            if owner_mod in self.modules:
                return self._symbol(owner_mod, parts[-1]) or ()
        return ()

    def _symbol(self, module: str, name: str) -> tuple[str, ...] | None:
        """A call of ``module.name``: the function, or a project class's
        ``__init__`` (a constructor call); ``None`` if neither."""
        fid = f"{module}:{name}"
        if fid in self.functions:
            return (fid,)
        if (module, name) in self.classes:
            return self._method_id((module, name), "__init__", with_overrides=False)
        return None

    # -- convenience -----------------------------------------------------

    def module_of(self, fid: str) -> str:
        return self.function_module[fid]
