"""Interprocedural rules R010–R012 and R014 over the linked call graph.

Each rule is a whole-program check: it sees the resolved
:class:`~repro.lint.flow.graph.CallGraph` of the ``repro`` modules (the
engine summarizes no other file) and reports
diagnostics at the *defect site* (the loop, the access, the call), never
at some caller that merely participates in the offending path — which is
also what makes suppression comments compose sanely (a ``disable`` on a
caller cannot silence a callee's violation).

Soundness/completeness trade-offs per rule are catalogued in DESIGN.md
§15; the short version: unresolved (dynamic) calls contribute nothing to
reachability and weights, written-name type identity stands in for real
types, and lock tokens are class-level (instance identity is ignored).
"""

from __future__ import annotations

from ..diagnostics import Diagnostic
from ..rules import Rule
from .dataflow import entry_locks, reaches_with_witness, transitive_weights
from .graph import CallGraph, CallSite, FunctionInfo

__all__ = ["FLOW_RULES", "FlowRule", "KERNEL_SUBPACKAGES"]


#: Subpackages whose loops are long-running kernels (the predicate-join
#: and R-tree block loops are as unbounded as the histogram builds).
KERNEL_SUBPACKAGES = frozenset(
    {"histograms", "join", "sampling", "predicates", "rtree"}
)

#: A loop whose per-iteration weight (statements, callees included)
#: exceeds this is a long path that must be cooperatively preemptible.
CHECKPOINT_STATEMENT_THRESHOLD = 8


#: An interprocedural rule: id, slug, summary, whole-program check.
FlowRule = Rule[CallGraph]


def _diag(
    graph: CallGraph,
    module: str,
    rule_id: str,
    rule_name: str,
    line: int,
    col: int,
    message: str,
) -> Diagnostic:
    return Diagnostic(
        rule=rule_id,
        name=rule_name,
        path=graph.modules[module].path,
        line=line,
        col=col,
        message=message,
    )


def _subpackage(module: str) -> str:
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else ""


# ----------------------------------------------------------------------
# R010 — checkpoint reachability in kernel loops
# ----------------------------------------------------------------------

_CHECKPOINT_ID = "repro.runtime:checkpoint"


def _loop_descendants(fn: FunctionInfo) -> dict[int, set[int]]:
    """loop index -> indices of loops nested inside it (inclusive)."""
    out: dict[int, set[int]] = {i: {i} for i in range(len(fn.loops))}
    for i, loop in enumerate(fn.loops):
        parent = loop.parent
        while parent is not None:
            out[parent].add(i)
            parent = fn.loops[parent].parent
    return out


def _check_r010(graph: CallGraph) -> list[Diagnostic]:
    """A kernel loop is preemptible iff ``repro.runtime.checkpoint`` is
    reachable from its body — lexically or through any chain of callees.
    The callee chain is resolved through imports, so only the real
    runtime checkpoint counts (not any function named ``checkpoint``),
    and a checkpoint elsewhere in the function — before or after the
    loop — does not cover it."""
    weights = transitive_weights(graph)
    # functions from which the runtime checkpoint is reachable
    reach_cp = reaches_with_witness(
        graph,
        {
            fid: "checkpoint"
            for fid, edges in graph.edges.items()
            if any(_CHECKPOINT_ID in e.targets for e in edges)
        },
    )
    out: list[Diagnostic] = []
    for fid, fn in graph.functions.items():
        module = graph.module_of(fid)
        if _subpackage(module) not in KERNEL_SUBPACKAGES:
            continue
        if not fn.loops:
            continue
        descendants = _loop_descendants(fn)
        edges = graph.edges[fid]
        for idx, loop in enumerate(fn.loops):
            inside = descendants[idx]
            effective = loop.weight
            covered = False
            for edge in edges:
                site_loop = edge.site.loop
                if site_loop is None or site_loop not in inside:
                    continue
                if _CHECKPOINT_ID in edge.targets or any(
                    t in reach_cp for t in edge.targets
                ):
                    covered = True
                    break
                for target in edge.targets:
                    effective += weights.get(target, 0)
            if covered or effective <= CHECKPOINT_STATEMENT_THRESHOLD:
                continue
            out.append(
                _diag(
                    graph, module, "R010", "missing-checkpoint-path",
                    loop.line, loop.col,
                    f"kernel loop runs ~{effective} statements per iteration "
                    "(callees included) and no path from its body reaches "
                    "repro.runtime.checkpoint — long loops must stay "
                    "preemptible by deadlines and the fault harness; call "
                    "checkpoint() in the body or in a helper the body calls",
                )
            )
    return out


# ----------------------------------------------------------------------
# R011 — blocking calls reachable from async defs
# ----------------------------------------------------------------------

#: Attribute-call terminals that wait on a pipe/socket peer.  Matched by
#: name (receivers are usually typed ``Any`` through multiprocessing), a
#: deliberate over-approximation — these names don't collide in practice.
_PIPE_WAITS = frozenset({"recv", "recv_bytes", "poll"})
#: pathlib I/O terminals (touch the filesystem synchronously).
_PATH_IO = frozenset({"read_bytes", "read_text", "write_bytes", "write_text"})
#: ``subprocess.*`` entry points that wait on a child.
_SUBPROCESS_WAITS = frozenset({"run", "check_call", "check_output", "call"})


def _blocking_primitive(site: CallSite) -> str | None:
    parts = site.parts
    if parts is not None:
        if parts == ("time", "sleep"):
            return "time.sleep()"
        if len(parts) == 2 and parts[0] in ("np", "numpy") and parts[1] == "load":
            return "np.load()"
        if parts == ("open",):
            return "open()"
        if (
            len(parts) == 2
            and parts[0] == "subprocess"
            and parts[1] in _SUBPROCESS_WAITS
        ):
            return f"subprocess.{parts[1]}()"
    if site.terminal in _PIPE_WAITS and (parts is None or len(parts) > 1):
        return f".{site.terminal}() pipe wait"
    if site.terminal in _PATH_IO and (parts is None or len(parts) > 1):
        return f".{site.terminal}() file I/O"
    if site.terminal == "communicate" and (parts is None or len(parts) > 1):
        return ".communicate() subprocess wait"
    return None


def _check_r011(graph: CallGraph) -> list[Diagnostic]:
    """An ``async def`` must not transitively reach a blocking primitive
    (pipe recv/poll, ``np.load``, file I/O, subprocess waits) on the
    event-loop thread.  The executor hop is the sanctioned escape: a
    callable *passed into* ``run_in_executor`` (or a lambda body) is not
    a call edge, so work dispatched to an executor never taints the
    coroutine — which is exactly the discipline the rule enforces."""
    local: dict[str, str] = {}
    local_sites: dict[str, list[tuple[CallSite, str]]] = {}
    for fid, fn in graph.functions.items():
        for site in fn.calls:
            prim = _blocking_primitive(site)
            if prim is not None:
                local.setdefault(fid, prim)
                local_sites.setdefault(fid, []).append((site, prim))
    witness = reaches_with_witness(graph, local)
    out: list[Diagnostic] = []
    for fid, fn in graph.functions.items():
        module = graph.module_of(fid)
        if not fn.is_async:
            continue
        reported: set[tuple[int, int]] = set()
        for site, prim in local_sites.get(fid, []):
            key = (site.line, site.col)
            if key not in reported:
                reported.add(key)
                out.append(
                    _diag(
                        graph, module, "R011", "async-blocking-call",
                        site.line, site.col,
                        f"blocking {prim} directly inside 'async def "
                        f"{fn.qual}' stalls the event loop — dispatch it "
                        "through loop.run_in_executor (or an async API)",
                    )
                )
        for edge in graph.edges[fid]:
            key = (edge.site.line, edge.site.col)
            if key in reported:
                continue
            for target in edge.targets:
                target_fn = graph.functions.get(target)
                if target_fn is not None and target_fn.is_async:
                    continue  # the async callee gets its own report
                if target in witness:
                    reported.add(key)
                    out.append(
                        _diag(
                            graph, module, "R011", "async-blocking-call",
                            edge.site.line, edge.site.col,
                            f"'async def {fn.qual}' calls "
                            f"'{target.split(':', 1)[1]}', which reaches "
                            f"blocking {witness[target]} with no executor "
                            "hop — wrap the call in loop.run_in_executor",
                        )
                    )
                    break
    return out


# ----------------------------------------------------------------------
# R012 — guarded-by lock discipline
# ----------------------------------------------------------------------

def _check_r012(graph: CallGraph) -> list[Diagnostic]:
    """Attributes declared ``# guarded-by: <lock>`` may only be touched
    while their class's lock is held — lexically (a ``with x.lock:``
    around the access) or interprocedurally (every call path into the
    enclosing function holds it).  Lock identity is class-level
    ``(Class, lock-attr)``: instances are not distinguished, which is
    sound for the pools/caches this guards (each access uses the same
    instance's lock) and keeps the lattice finite."""
    guarded: dict[tuple[str, str], dict[str, str]] = {}
    for key, cls in graph.classes.items():
        if cls.guarded:
            guarded[key] = dict(cls.guarded)
    if not guarded:
        return []

    def canon(
        fid: str, locks: tuple[tuple[str, str], ...]
    ) -> frozenset[tuple[str, str]]:
        module = graph.module_of(fid)
        fn = graph.functions[fid]
        out: set[tuple[str, str]] = set()
        for recv, attr in locks:
            if recv == "self" and fn.cls is not None:
                owner: tuple[str, str] | None = (module, fn.cls)
            else:
                owner = graph.resolve_class(module, recv)
            if owner is not None:
                out.add((f"{owner[0]}:{owner[1]}", attr))
        return frozenset(out)

    universe = frozenset(
        (f"{mod}:{cls}", lock)
        for (mod, cls), attrs in guarded.items()
        for lock in set(attrs.values())
    )
    entry = entry_locks(
        graph, universe, lambda fid, edge: canon(fid, edge.site.locks)
    )
    out: list[Diagnostic] = []
    for fid, fn in graph.functions.items():
        module = graph.module_of(fid)
        if fn.is_ctor:
            continue
        for access in fn.accesses:
            if access.recv == "self" and fn.cls is not None:
                owner: tuple[str, str] | None = (module, fn.cls)
            else:
                owner = graph.resolve_class(module, access.recv)
            if owner is None or owner not in guarded:
                continue
            lock = guarded[owner].get(access.attr)
            if lock is None:
                continue
            need = (f"{owner[0]}:{owner[1]}", lock)
            have = entry.get(fid, frozenset()) | canon(fid, access.locks)
            if need not in have:
                out.append(
                    _diag(
                        graph, module, "R012", "guarded-by",
                        access.line, access.col,
                        f"access to '{owner[1]}.{access.attr}' (guarded-by: "
                        f"{lock}) in '{fn.qual}' without '{owner[1]}.{lock}' "
                        "held on every path — wrap the access in "
                        f"'with ...{lock}:' or acquire it at all call sites",
                    )
                )
    return out


# ----------------------------------------------------------------------
# R014 — deadline single-spend
# ----------------------------------------------------------------------

def _check_r014(graph: CallGraph) -> list[Diagnostic]:
    """A call chain threads at most one wall-clock budget.  Constructing
    ``Deadline(...)`` from anything but the incoming budget (a deadline
    parameter or a ``.remaining`` expression) inside a function that
    already receives one — or inside anything reachable from a function
    that already spends one — silently *extends* the caller's deadline.
    Entry points spending a fresh budget once are the sanctioned case.

    A spend is only "inside" a chain when some carrier reaches it that
    the spender does not itself reach: a fallback estimator whose own
    helpers thread the deadline it just created (a dispatch cycle back
    into the entry point) is the origin of the chain, not a respend."""
    carriers = {
        fid
        for fid, fn in graph.functions.items()
        if fn.has_deadline_param or fn.spends
    }

    def _forward(fid: str) -> set[str]:
        seen: set[str] = set()
        work = [fid]
        while work:
            current = work.pop()
            for edge in graph.edges.get(current, ()):
                for target in edge.targets:
                    if target not in seen:
                        seen.add(target)
                        work.append(target)
        return seen

    def _carrier_ancestors(fid: str) -> set[str]:
        found: set[str] = set()
        seen: set[str] = set()
        work = [fid]
        while work:
            current = work.pop()
            for edge in graph.callers.get(current, ()):
                caller = edge.caller
                if caller in carriers:
                    found.add(caller)
                if caller not in seen:
                    seen.add(caller)
                    work.append(caller)
        return found

    out: list[Diagnostic] = []
    for fid, fn in graph.functions.items():
        module = graph.module_of(fid)
        for line, col, derived in fn.spends:
            if derived:
                continue
            if fn.has_deadline_param:
                out.append(
                    _diag(
                        graph, module, "R014", "deadline-respend",
                        line, col,
                        f"'{fn.qual}' already receives a deadline/budget "
                        "parameter but constructs a fresh Deadline from "
                        "wall-clock — derive it from the incoming budget "
                        "(e.g. Deadline(deadline.remaining)) so one request "
                        "spends one budget",
                    )
                )
            elif _carrier_ancestors(fid) - _forward(fid) - {fid}:
                out.append(
                    _diag(
                        graph, module, "R014", "deadline-respend",
                        line, col,
                        f"'{fn.qual}' is reachable from a deadline-carrying "
                        "call chain but re-spends a fresh wall-clock "
                        "Deadline — thread the caller's budget down "
                        "(pass deadline.remaining) instead of re-deriving it",
                    )
                )
    return out


FLOW_RULES: dict[str, FlowRule] = {
    rule.id: rule
    for rule in (
        FlowRule(
            "R010",
            "missing-checkpoint-path",
            "kernel loops must reach runtime.checkpoint (lexically or "
            "through callees)",
            _check_r010,
        ),
        FlowRule(
            "R011",
            "async-blocking-call",
            "async defs must not transitively reach pipe waits, np.load, "
            "file I/O or subprocess waits without an executor hop",
            _check_r011,
        ),
        FlowRule(
            "R012",
            "guarded-by",
            "attributes declared '# guarded-by: <lock>' are only touched "
            "with the lock held on every access path",
            _check_r012,
        ),
        FlowRule(
            "R014",
            "deadline-respend",
            "a call chain threads one wall-clock budget; derive nested "
            "Deadlines from the incoming one, never from the clock",
            _check_r014,
        ),
    )
}
