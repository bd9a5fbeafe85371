"""R010 fixtures: kernel loops that must reach ``runtime.checkpoint``.

Two true positives (``uncovered_local``, ``uncovered_through_helper``)
and two loops the interprocedural rule must leave alone (lexical cover
and cover through a callee).
"""

from ..runtime import checkpoint
from .r010_helpers import chatty_helper, far_helper


def local_cover(values):
    """Covered: the loop body itself checkpoints (lexical)."""
    total = 0
    for v in values:
        checkpoint("fixture.local")
        a = v + 1
        b = a * 2
        c = b - 3
        d = c * c
        e = d + a
        f = e - b
        g = f + c
        total += g
    return total


def helper_cover(values):
    """Covered: a long callee transitively reaches checkpoint."""
    total = 0
    for v in values:
        total += chatty_helper(v)
    return total


def uncovered_local(values):
    """TP: long body, no checkpoint on any path."""
    total = 0
    for v in values:
        a = v + 1
        b = a * 2
        c = b - 3
        d = c * c
        e = d + a
        f = e - b
        g = f + c
        h = g + d
        total += h
    return total


def uncovered_through_helper(values):
    """TP: the weight is in a cross-module callee with no checkpoint."""
    total = 0
    for v in values:
        total += far_helper(v)
    return total


def caller_side_disable(values):
    """A caller's disable must not silence the callee-loop diagnostic."""
    return uncovered_local(values)  # repro-lint: disable=R010
