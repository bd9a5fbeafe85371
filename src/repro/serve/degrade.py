"""The graceful-degradation ladder: pressure in, rung out.

Under load, an estimation service has exactly three honest options:
answer with the requested quality, answer with a *cheaper, known-coarser*
quality, or refuse.  The ladder makes that decision explicit and
observable.  Measured queue pressure (admission-queue occupancy in
``[0, 1]``) selects the cheapest acceptable rung:

=================  =======================================================
rung               cost / quality trade
=================  =======================================================
``full``           the requested estimator, through the micro-batcher and
                   the shared cache — O(data) on a cold cache
``cached-coarse``  a cheaper histogram via the content-addressed cache —
                   an L1 hit or store load, else its own (coarser,
                   cheaper) build
``parametric``     the Aref–Samet closed form over four first-order
                   statistics — microseconds, cannot time out
``shed``           explicit refusal (:class:`~repro.errors.ServiceOverloadError`)
                   — the only rung that does not answer
=================  =======================================================

The answering rungs are the labels of one
:func:`~repro.service.resilient.default_fallback_chain` for the
requested estimator: ``full`` is its index 0, ``parametric`` its
closed-form floor, and ``cached-coarse`` any histogram rung in between
(for GH: the coarser GH, then PH).  Pressure picks the starting index;
when a rung raises (batch failure, deadline expiry, poison query), the
server moves one index down the same chain, and the response's
:class:`ServeProvenance` records which rung answered and why, so a
degraded answer is never confused with a full-quality one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..obs import Counters
from ..service.resilient import AttemptRecord

__all__ = ["ServiceRung", "DegradePolicy", "ServeProvenance", "DegradationLadder"]


class ServiceRung(Enum):
    """One level of the serving ladder, best (FULL) to worst (SHED)."""

    FULL = "full"
    CACHED = "cached-coarse"
    PARAMETRIC = "parametric"
    SHED = "shed"


#: Ladder order, best to worst (the counters' key order).
_ORDER = (
    ServiceRung.FULL,
    ServiceRung.CACHED,
    ServiceRung.PARAMETRIC,
    ServiceRung.SHED,
)


@dataclass(frozen=True)
class DegradePolicy:
    """Pressure thresholds (each in ``[0, 1]``).

    A request admitted at pressure ``p`` runs at the cheapest rung whose
    threshold is exceeded: ``cached_at <= p`` degrades to the cached
    coarser histogram, ``parametric_at <= p`` to the closed form,
    ``shed_at <= p`` refuses outright.  The ``cached-coarse`` rung is
    the first rung below the requested one in its fallback chain.
    """

    cached_at: float = 0.50
    parametric_at: float = 0.75
    shed_at: float = 0.95

    def __post_init__(self) -> None:
        if not 0.0 < self.cached_at <= self.parametric_at <= self.shed_at:
            raise ValueError(
                "thresholds must satisfy 0 < cached_at <= parametric_at <= "
                f"shed_at, got {self.cached_at}, {self.parametric_at}, {self.shed_at}"
            )


@dataclass(frozen=True)
class ServeProvenance:
    """Who answered one request, at what pressure, and why.

    Attached to every :class:`~repro.serve.loop.ServeResponse` the same
    way :class:`~repro.service.resilient.Provenance` annotates resilient
    estimates: ``degraded`` is True whenever the answer did not come
    from the ``full`` rung at the requested quality, ``reason``
    carries the first failure that forced a descent (empty when the
    rung was selected purely by pressure), and ``attempts`` lists every
    rung run on the way, in the resilient wrapper's format (empty on a
    memo fast-lane hit, which runs no rung).  Being frozen, a fast-lane
    hit's provenance is shared by every hit with the same requested
    label at the same queue depth.
    """

    rung: str  #: ServiceRung value that produced the answer
    requested: str  #: what the client asked for, e.g. ``"gh(level=7)"``
    degraded: bool  #: True unless the full rung answered cleanly
    pressure: float  #: admission-queue pressure when the rung was chosen
    reason: str = ""  #: first failure that forced a descent ("" = pressure only)
    #: Execution path: "batch", "memo" (the tier-0 estimate
    #: memo answered on the event loop — a bit-identical replay of a
    #: previous full-rung answer), or "local"; the cached rung refines
    #: "local" to "store" (answered off the artifact catalog) or
    #: "build" (a side had to scan the data) when a store is attached.
    via: str = "local"
    attempts: tuple[AttemptRecord, ...] = ()  #: one record per rung attempt


class DegradationLadder:
    """Stateful rung selector with per-rung counters.

    :meth:`select` maps measured pressure to a rung per
    :class:`DegradePolicy`; :meth:`record` tallies in ``stats`` which
    rung ultimately answered (failure descent walks the estimator's
    fallback chain and never sheds a request it already admitted).
    The server's fast-lane counters share ``stats.lock``, so a memo
    hit tallies ``full`` and ``fast_hits`` in one acquisition.
    """

    def __init__(self, policy: DegradePolicy | None = None) -> None:
        self.policy = policy if policy is not None else DegradePolicy()
        self.stats = Counters(*(rung.value for rung in _ORDER))

    def select(self, pressure: float) -> ServiceRung:
        """The cheapest acceptable rung for this much queue pressure."""
        policy = self.policy
        if pressure >= policy.shed_at:
            return ServiceRung.SHED
        if pressure >= policy.parametric_at:
            return ServiceRung.PARAMETRIC
        if pressure >= policy.cached_at:
            return ServiceRung.CACHED
        return ServiceRung.FULL

    def record(self, rung: ServiceRung) -> None:
        """Tally that ``rung`` answered (or shed) one request."""
        self.stats.add(rung.value)

    def __repr__(self) -> str:
        return f"DegradationLadder({self.policy!r}, {self.stats!r})"
