"""The domain rules and their registry.

Each rule guards one invariant the estimation stack's correctness
arguments rest on; DESIGN.md §10 documents the invariant, the failure
mode it prevents, and the sanctioned escape hatches.  Rules are pure
functions over a :class:`~repro.lint.context.FileContext` returning
:class:`~repro.lint.diagnostics.Diagnostic` lists; the engine applies
suppressions afterwards, so rules never need to look at comments.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Generic, TypeVar

from .context import FileContext
from .diagnostics import Diagnostic

__all__ = ["Rule", "RULES", "PARSE_ERROR_RULE"]


#: What a rule checks: one file's context, or the linked call graph.
Subject = TypeVar("Subject")


@dataclass(frozen=True)
class Rule(Generic[Subject]):
    """A registered invariant check (per-file here; the flow rules in
    :mod:`repro.lint.flow.rules` check the whole project)."""

    id: str
    name: str
    summary: str  #: one line for --list-rules
    check: Callable[[Subject], list[Diagnostic]]


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------

def _dotted(node: ast.expr) -> tuple[str, ...] | None:
    """``np.random.uniform`` -> ("np", "random", "uniform"); None if the
    chain is rooted in anything but a plain name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return tuple(reversed(parts))


# ----------------------------------------------------------------------
# R001 — seeded-RNG discipline
# ----------------------------------------------------------------------

#: numpy.random attributes that *construct* seedable generators (allowed);
#: everything else on the module draws from hidden global state.
_RNG_CONSTRUCTORS = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
     "PCG64DXSM", "Philox", "SFC64", "MT19937"}
)


def _check_global_rng(ctx: FileContext) -> list[Diagnostic]:
    if not ctx.in_repro:
        return []
    out = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        parts = _dotted(node.func)
        if parts is None:
            continue
        if parts[:2] in (("np", "random"), ("numpy", "random")) and len(parts) == 3:
            if parts[2] not in _RNG_CONSTRUCTORS:
                out.append(
                    ctx.diagnostic(
                        "R001",
                        "global-rng",
                        node,
                        f"call to global RNG '{'.'.join(parts)}' — stochastic "
                        "paths must draw from an explicit numpy Generator "
                        "(seed one with np.random.default_rng(seed) at the "
                        "API boundary and pass it down)",
                    )
                )
        elif parts[0] == "random" and len(parts) == 2:
            out.append(
                ctx.diagnostic(
                    "R001",
                    "global-rng",
                    node,
                    f"call to stdlib global RNG 'random.{parts[1]}' — use an "
                    "explicit numpy Generator parameter instead",
                )
            )
    return out


# ----------------------------------------------------------------------
# R003 — raise sites use the error taxonomy
# ----------------------------------------------------------------------

#: Builtins whose semantics the taxonomy deliberately does not subsume:
#: programming errors and OS/container faults keep their native types.
_APPROVED_BUILTIN_RAISES = frozenset(
    {"ValueError", "TypeError", "KeyError", "IndexError", "AttributeError",
     "NotImplementedError", "AssertionError", "StopIteration", "SystemExit",
     "OSError", "FileNotFoundError", "IsADirectoryError", "PermissionError"}
)

#: Dotted raises that are fine as-is (CLI argument validation).
_APPROVED_DOTTED_RAISES = frozenset({"argparse.ArgumentTypeError"})

#: Fallback taxonomy when the tree being linted carries no
#: ``repro/errors.py`` (e.g. a partial fixture tree).
_DEFAULT_TAXONOMY = frozenset(
    {"ReproError", "InvalidDatasetError", "EstimationTimeout",
     "EstimatorUnavailable", "TransientEstimationError",
     "DegradedResultWarning"}
)

def _taxonomy_for(ctx: FileContext) -> frozenset[str]:
    """Class names defined in the linted tree's own ``repro/errors.py``.

    Derived from source (not imported, not hardcoded) so the rule follows
    the taxonomy as it grows; falls back to the known taxa if the tree
    has no errors module.  Parsed through the per-run
    :class:`~repro.lint.context.ModuleIndex` cache, so there is no
    process-lifetime staleness when ``errors.py`` changes.
    """
    # Walk up to the `repro` package directory this file belongs to.
    parent = ctx.path.parent
    while parent.name != "repro" and (parent / "__init__.py").is_file():
        parent = parent.parent
    errors_py = parent / "errors.py"
    if parent.name != "repro" or not errors_py.is_file():
        return _DEFAULT_TAXONOMY
    taxa = ctx.index.class_names(errors_py)
    return _DEFAULT_TAXONOMY if taxa is None else taxa


def _check_error_taxonomy(ctx: FileContext) -> list[Diagnostic]:
    if not ctx.in_repro:
        return []
    taxonomy = _taxonomy_for(ctx)
    out = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        parts = _dotted(exc)
        if parts is None:
            continue  # computed expression — not statically classifiable
        name = parts[-1]
        if not name[:1].isupper():
            continue  # re-raised variable or factory call
        if ".".join(parts) in _APPROVED_DOTTED_RAISES:
            continue
        if name in taxonomy or name in _APPROVED_BUILTIN_RAISES:
            continue
        out.append(
            ctx.diagnostic(
                "R003",
                "error-taxonomy",
                node,
                f"raise of {name!r} outside the repro.errors taxonomy — use a "
                "ReproError subclass (so the resilient service can classify "
                "the failure) or one of the approved builtins: "
                + ", ".join(sorted(_APPROVED_BUILTIN_RAISES)),
            )
        )
    return out


# ----------------------------------------------------------------------
# R004 — explicit dtype in kernel array constructors
# ----------------------------------------------------------------------

#: numpy constructors whose inferred dtype silently follows the input;
#: mapped to the number of leading positional parameters *before* dtype.
_DTYPE_SENSITIVE = {
    "asarray": 1,
    "array": 1,
    "empty": 1,
    "zeros": 1,
    "ones": 1,
    "full": 2,
    "fromiter": 1,
}

#: Subpackages bound by the float64/C-contiguous rect-array contract.
_DTYPE_SUBPACKAGES = frozenset({"geometry", "histograms", "sampling"})


def _check_explicit_dtype(ctx: FileContext) -> list[Diagnostic]:
    if not (ctx.in_repro and ctx.subpackage() in _DTYPE_SUBPACKAGES):
        return []
    out = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        parts = _dotted(node.func)
        if (
            parts is None
            or len(parts) != 2
            or parts[0] not in ("np", "numpy")
            or parts[1] not in _DTYPE_SENSITIVE
        ):
            continue
        min_positional = _DTYPE_SENSITIVE[parts[1]]
        has_dtype = any(kw.arg == "dtype" for kw in node.keywords) or (
            len(node.args) > min_positional
        )
        if not has_dtype:
            out.append(
                ctx.diagnostic(
                    "R004",
                    "explicit-dtype",
                    node,
                    f"'{'.'.join(parts)}' without an explicit dtype= — the "
                    "rect-array and scatter kernels assume float64 (and "
                    "int64 indices); inferred dtypes drift with the input "
                    "and break bit-identity guarantees",
                )
            )
    return out


# ----------------------------------------------------------------------
# R005 — no broad exception handlers
# ----------------------------------------------------------------------

_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _broad_names(type_node: ast.expr | None) -> list[str]:
    if type_node is None:
        return ["<bare>"]
    nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
    found = []
    for node in nodes:
        parts = _dotted(node)
        if parts and parts[-1] in _BROAD_EXCEPTIONS:
            found.append(".".join(parts))
    return found


def _reraises(handler: ast.ExceptHandler) -> bool:
    """True for cleanup handlers that end in a bare ``raise``.

    ``except BaseException: <cancel work>; raise`` does not swallow
    anything — it is the sanctioned cancel-and-propagate pattern — so it
    is exempt from R005.
    """
    return bool(handler.body) and (
        isinstance(handler.body[-1], ast.Raise) and handler.body[-1].exc is None
    )


def _check_broad_except(ctx: FileContext) -> list[Diagnostic]:
    if not ctx.in_repro:
        return []
    out = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler) or _reraises(node):
            continue
        for name in _broad_names(node.type):
            what = "bare 'except:'" if name == "<bare>" else f"'except {name}'"
            out.append(
                ctx.diagnostic(
                    "R005",
                    "broad-except",
                    node,
                    f"{what} swallows unexpected failures — catch ReproError "
                    "(or a narrower taxon/builtin); only the resilient "
                    "fallback chain may catch everything, with an explicit "
                    "suppression",
                )
            )
    return out


# ----------------------------------------------------------------------
# R007 — monotonic clocks for timing
# ----------------------------------------------------------------------

def _check_wall_clock(ctx: FileContext) -> list[Diagnostic]:
    """``time.time()`` is wall-clock: NTP slews and DST jumps make the
    intervals computed from it wrong, and every duration this library
    reports (timing breakdowns, deadlines, benchmark JSON) is an
    interval.  ``time.perf_counter()`` is monotonic and strictly better
    for that purpose, so library code must not touch the wall clock."""
    if not ctx.in_repro:
        return []
    out = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            if _dotted(node.func) == ("time", "time"):
                out.append(
                    ctx.diagnostic(
                        "R007",
                        "wall-clock-timing",
                        node,
                        "call to wall-clock 'time.time()' — durations must "
                        "come from the monotonic 'time.perf_counter()' "
                        "(wall time jumps under NTP/DST and corrupts every "
                        "interval derived from it)",
                    )
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time" and node.level == 0:
                for alias in node.names:
                    if alias.name == "time":
                        out.append(
                            ctx.diagnostic(
                                "R007",
                                "wall-clock-timing",
                                node,
                                "'from time import time' smuggles the wall "
                                "clock in under a bare name — import the "
                                "module and use time.perf_counter() for "
                                "durations",
                            )
                        )
    return out


# ----------------------------------------------------------------------
# R008 — no blocking sleeps
# ----------------------------------------------------------------------

#: ``(module, function)`` pairs allowed to call the blocking
#: ``time.sleep``: the resilient chain's deadline-clamped backoff and the
#: fault injector's latency rule.  Everything else must either not sleep
#: or (in ``async def``) await ``asyncio.sleep`` so the event loop keeps
#: serving.
_SLEEP_SANCTIONED = frozenset(
    {
        ("repro.service.resilient", "_backoff"),
        ("repro.service.faults", "on_checkpoint"),
    }
)


def _sleep_aliases(tree: ast.Module) -> frozenset[str]:
    """Local names bound to ``time.sleep`` via ``from time import sleep``."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "time" and stmt.level == 0:
            for alias in stmt.names:
                if alias.name == "sleep":
                    names.add(alias.asname or alias.name)
    return frozenset(names)


def _check_blocking_sleep(ctx: FileContext) -> list[Diagnostic]:
    """A blocking ``time.sleep`` freezes whatever is sharing the thread:
    in an ``async def`` it stalls the *entire* event loop (every other
    request's latency inherits the pause), and in library code it hides
    time the deadline machinery cannot see.  Pauses belong to the
    sanctioned backoff/fault-injection helpers; coroutines must await
    ``asyncio.sleep`` instead."""
    if not ctx.in_repro:
        return []
    aliases = _sleep_aliases(ctx.tree)
    out = []

    def walk(node: ast.AST, func: str | None, is_async: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name, isinstance(child, ast.AsyncFunctionDef))
                continue
            if isinstance(child, ast.Call):
                parts = _dotted(child.func)
                is_sleep = parts == ("time", "sleep") or (
                    parts is not None and len(parts) == 1 and parts[0] in aliases
                )
                if is_sleep:
                    if is_async:
                        out.append(
                            ctx.diagnostic(
                                "R008",
                                "blocking-sleep",
                                child,
                                "blocking 'time.sleep' inside 'async def' "
                                "stalls the whole event loop — await "
                                "'asyncio.sleep' instead",
                            )
                        )
                    elif (ctx.module, func) not in _SLEEP_SANCTIONED:
                        out.append(
                            ctx.diagnostic(
                                "R008",
                                "blocking-sleep",
                                child,
                                "blocking 'time.sleep' outside the sanctioned "
                                "backoff helpers — pauses must be deadline-"
                                "clamped backoff (resilient chain), injected "
                                "fault latency, or 'asyncio.sleep' in "
                                "coroutines",
                            )
                        )
            walk(child, func, is_async)

    walk(ctx.tree, None, False)
    return out


# ----------------------------------------------------------------------
# R009 — single-writer persistence
# ----------------------------------------------------------------------

#: Module prefixes allowed to write binary artifacts to disk: the
#: content-addressed catalog (atomic tmp-write/fsync/rename publish),
#: the dataset snapshot writer, and the legacy histogram .npz format.
#: Everywhere else, an ad-hoc ``np.save``/``pickle.dump``/binary
#: ``open`` bypasses the publish protocol and can leave torn artifacts
#: that a warm-starting worker then maps.
_PERSISTENCE_SANCTIONED = (
    "repro.store",
    "repro.datasets.io",
    "repro.histograms.file",
)

#: numpy serializers that write array files.
_NP_WRITERS = frozenset({"save", "savez", "savez_compressed"})


def _binary_write_mode(call: ast.Call) -> bool:
    """True when ``open(...)`` is given a literal binary-write mode."""
    mode: ast.expr | None = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return False
    value = mode.value
    return "b" in value and any(flag in value for flag in "wxa")


def _check_single_writer(ctx: FileContext) -> list[Diagnostic]:
    """Persistent artifacts must be born through the catalog's atomic
    publish (or the two sanctioned format modules).  A stray writer
    elsewhere can tear files mid-write, and every reader that memory-maps
    the catalog would inherit the corruption — the single-writer
    discipline is what makes read-only memory-mapped loads safe."""
    if not ctx.in_repro:
        return []
    if any(
        ctx.module == prefix or ctx.module.startswith(prefix + ".")
        for prefix in _PERSISTENCE_SANCTIONED
    ):
        return []
    out = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        parts = _dotted(node.func)
        if parts is None:
            continue
        if parts[0] in ("np", "numpy") and len(parts) == 2 and parts[1] in _NP_WRITERS:
            out.append(
                ctx.diagnostic(
                    "R009",
                    "single-writer",
                    node,
                    f"'{'.'.join(parts)}' outside the sanctioned persistence "
                    "modules — artifacts must go through repro.store's atomic "
                    "publish (or repro.datasets.io / repro.histograms.file)",
                )
            )
        elif parts == ("pickle", "dump") or parts == ("pickle", "dumps"):
            out.append(
                ctx.diagnostic(
                    "R009",
                    "single-writer",
                    node,
                    f"'pickle.{parts[1]}' outside the sanctioned persistence "
                    "modules — pickled artifacts bypass the catalog's "
                    "manifest/checksum protocol and cannot be verified",
                )
            )
        elif parts == ("open",) and _binary_write_mode(node):
            out.append(
                ctx.diagnostic(
                    "R009",
                    "single-writer",
                    node,
                    "binary-mode write via 'open' outside the sanctioned "
                    "persistence modules — raw byte writers skip the "
                    "tmp-write/fsync/rename publish and can tear artifacts",
                )
            )
    return out


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

#: Pseudo-rule id used by the engine for unparseable files.  Not part of
#: RULES (it cannot be suppressed away — a file that does not
#: parse can never be certified clean).
PARSE_ERROR_RULE = ("E001", "parse-error")

RULES: dict[str, Rule[FileContext]] = {
    rule.id: rule
    for rule in (
        Rule(
            "R001",
            "global-rng",
            "no global np.random.* / random.* calls in library code; "
            "stochastic paths take an explicit numpy Generator",
            _check_global_rng,
        ),
        Rule(
            "R003",
            "error-taxonomy",
            "raise sites use the repro.errors taxonomy or approved builtins",
            _check_error_taxonomy,
        ),
        Rule(
            "R004",
            "explicit-dtype",
            "numpy array constructors in kernel packages pass an explicit dtype=",
            _check_explicit_dtype,
        ),
        Rule(
            "R005",
            "broad-except",
            "no bare/broad except outside the resilient fallback chain",
            _check_broad_except,
        ),
        Rule(
            "R007",
            "wall-clock-timing",
            "no wall-clock time.time() in library code; durations use the "
            "monotonic time.perf_counter()",
            _check_wall_clock,
        ),
        Rule(
            "R008",
            "blocking-sleep",
            "no blocking time.sleep outside the sanctioned backoff helpers; "
            "async code must await asyncio.sleep",
            _check_blocking_sleep,
        ),
        Rule(
            "R009",
            "single-writer",
            "persistent binary artifacts are written only by repro.store / "
            "repro.datasets.io / repro.histograms.file",
            _check_single_writer,
        ),
    )
}
