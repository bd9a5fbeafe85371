"""Fixpoint dataflow driver over the call graph.

Three small, monotone analyses cover everything R010–R012 and R014
need.  Each is a worklist iteration to a fixpoint; all lattices are
finite (booleans, saturating integers, or subsets of a finite token
universe), so every loop terminates regardless of recursion or
call-graph cycles.

The driver works on function *ids* (``"module:qual"``).  Target ids that
have no :class:`~repro.lint.flow.graph.FunctionInfo` (calls into code the
graph never saw) simply contribute the lattice bottom — each rule's
conservatism around such unresolved edges is documented in DESIGN.md §15.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .graph import CallGraph, Edge

__all__ = [
    "WEIGHT_CAP",
    "entry_locks",
    "reaches_with_witness",
    "transitive_weights",
]

#: Saturation bound for transitive statement weights.  Far above any
#: meaningful checkpoint threshold; exists only to keep the weight
#: lattice finite in the presence of recursion.
WEIGHT_CAP = 10_000


def reaches_with_witness(
    graph: CallGraph, local: Mapping[str, str]
) -> dict[str, str]:
    """Reverse reachability with a human-readable witness per function.

    ``local`` maps function ids to a description of a primitive found
    directly in their body.  The result maps every function that can
    reach a primitive to a ``"prim via f -> g"`` chain (shortest-ish,
    first-discovered) used in diagnostic messages.
    """
    witness: dict[str, str] = dict(local)
    work = list(local)
    while work:
        current = work.pop(0)
        for edge in graph.callers.get(current, ()):
            if edge.caller not in witness:
                callee_name = current.split(":", 1)[1]
                witness[edge.caller] = f"{witness[current]} [via {callee_name}()]"
                work.append(edge.caller)
    return witness


def transitive_weights(graph: CallGraph) -> dict[str, int]:
    """Saturating per-function statement weight including callees.

    ``weight(f) = own_weight(f) + sum(weight(g) for g called by f)``,
    capped at :data:`WEIGHT_CAP`.  Unresolved calls contribute nothing
    (an under-approximation; see the R010 notes in DESIGN.md §15).
    """
    weights: dict[str, int] = {
        fid: fn.weight for fid, fn in graph.functions.items()
    }
    changed = True
    while changed:
        changed = False
        for fid, edges in graph.edges.items():
            total = graph.functions[fid].weight
            for edge in edges:
                for target in edge.targets:
                    total += weights.get(target, 0)
                    if total >= WEIGHT_CAP:
                        break
                if total >= WEIGHT_CAP:
                    break
            total = min(total, WEIGHT_CAP)
            if total > weights[fid]:
                weights[fid] = total
                changed = True
    return weights


def entry_locks(
    graph: CallGraph,
    universe: frozenset[tuple[str, str]],
    canonical: Callable[[str, Edge], frozenset[tuple[str, str]]],
) -> dict[str, frozenset[tuple[str, str]]]:
    """Locks guaranteed held on *entry* to each function.

    ``entry(f)`` is the intersection over every call site of
    ``entry(caller) | lexically-held-at-site``; functions with no known
    callers (public entry points) hold nothing.  ``canonical`` maps one
    edge's lexically-held written-name tokens into the shared token
    universe (resolving ``self`` and imported class names).  Initialized
    optimistically to the full universe and narrowed to the greatest
    fixpoint, so mutually-recursive helpers that are only ever called
    under a lock still verify.
    """
    held: dict[str, frozenset[tuple[str, str]]] = {}
    for fid in graph.functions:
        callers = graph.callers.get(fid, [])
        held[fid] = universe if callers else frozenset()

    def site_locks(edge: Edge) -> frozenset[tuple[str, str]]:
        return held.get(edge.caller, frozenset()) | canonical(edge.caller, edge)

    changed = True
    while changed:
        changed = False
        for fid in graph.functions:
            callers = graph.callers.get(fid, [])
            if not callers:
                continue
            narrowed: frozenset[tuple[str, str]] = universe
            for edge in callers:
                narrowed &= site_locks(edge)
                if not narrowed:
                    break
            if narrowed != held[fid]:
                held[fid] = narrowed
                changed = True
    return held
