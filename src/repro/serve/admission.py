"""Admission control: bounded queue + per-tenant token buckets.

The front door's first rule is *never buffer without bound*.  Every
request must acquire an :class:`AdmissionTicket` before any estimation
work starts; when the bounded queue is full — or the tenant's token
bucket is dry — the request is rejected **immediately** with a typed
:class:`~repro.errors.ServiceOverloadError` instead of joining an
ever-growing backlog.  Explicit rejection keeps latency bounded under
overload (clients can retry with backoff); silent queueing converts an
overload into a latency collapse and, eventually, an OOM.

The occupancy of the queue doubles as the *pressure* signal driving the
graceful-degradation ladder (:mod:`repro.serve.degrade`): the fuller
the queue, the cheaper the rung the server selects.

Everything here is deterministic and clock-injectable: the token bucket
refills from an explicit monotonic ``clock`` callable, so tests drive
quota decisions with a fake clock instead of sleeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict

from ..errors import ServiceOverloadError
from ..obs import Counters

__all__ = [
    "TokenBucket",
    "AdmissionTicket",
    "AdmissionController",
]

Clock = Callable[[], float]


class TokenBucket:
    """A deterministic token bucket: ``rate`` tokens/s up to ``burst``.

    The bucket starts full.  :meth:`try_acquire` refills lazily from the
    injected monotonic clock and takes one token when available — no
    background task, no sleeping, O(1) per call.
    """

    __slots__ = ("rate", "burst", "_clock", "_tokens", "_stamp")

    def __init__(self, rate: float, burst: float, *, clock: Clock = time.monotonic) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0 tokens/s, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must allow at least one token, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = now - self._stamp
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._stamp = now

    @property
    def available(self) -> float:
        """Tokens currently available (after a lazy refill)."""
        self._refill()
        return self._tokens

    def try_acquire(self) -> bool:
        """Take one token if available; False (and no wait) otherwise."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def __repr__(self) -> str:
        return f"TokenBucket(rate={self.rate:g}/s, burst={self.burst:g})"


@dataclass
class AdmissionTicket:
    """Proof of admission for one in-flight request (release exactly once)."""

    tenant: str
    released: bool = False


class AdmissionController:
    """Bounded admission queue with optional per-tenant quotas.

    Parameters
    ----------
    max_depth:
        Hard cap on simultaneously admitted requests.  The ``max_depth
        + 1``-th concurrent request is rejected with
        :class:`ServiceOverloadError` (``reason="queue-full"``) — the
        system never buffers beyond this.
    tenant_rate / tenant_burst:
        When ``tenant_rate`` is given, each tenant gets a
        :class:`TokenBucket` refilling at that rate (tokens/s) with the
        given burst; an empty bucket rejects with ``reason="quota"``
        *before* the shared queue is consulted, so one noisy tenant
        cannot monopolize admission.
    max_tenants:
        Cap on live tenant buckets (LRU-evicted; idle full buckets are
        preferred victims because recreating them is free) — distinct
        tenant *strings* must not become an unbounded-memory path.
    clock:
        Monotonic clock injected into every tenant bucket (tests pass a
        fake; production uses ``time.monotonic``).

    Single-loop discipline: the controller is designed to be called from
    one asyncio event loop (the server's); only its ``stats`` counters lock.
    """

    def __init__(
        self,
        max_depth: int,
        *,
        tenant_rate: float | None = None,
        tenant_burst: float = 20.0,
        max_tenants: int = 1024,
        clock: Clock = time.monotonic,
    ) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if max_tenants < 1:
            raise ValueError(f"max_tenants must be >= 1, got {max_tenants}")
        self.max_depth = int(max_depth)
        self.tenant_rate = tenant_rate
        self.tenant_burst = tenant_burst
        self.max_tenants = int(max_tenants)
        self.stats = Counters(
            "admitted",
            "released",
            "rejected_queue",  # the bounded queue was full
            "rejected_quota",  # the tenant bucket was dry
            "high_water",  # deepest simultaneous occupancy observed
            derived={"rejected": lambda c: c["rejected_queue"] + c["rejected_quota"]},
        )
        self._clock = clock
        self._depth = 0
        self._buckets: Dict[str, TokenBucket] = {}

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Requests currently admitted and not yet released."""
        return self._depth

    @property
    def pressure(self) -> float:
        """Queue occupancy in ``[0, 1]`` (raw, for observability)."""
        return self._depth / self.max_depth

    @property
    def pressure_ahead(self) -> float:
        """Occupancy excluding one slot — the degradation ladder's input.

        A just-admitted request must measure the pressure from its
        *peers*, not from its own slot: counting itself would make the
        top ``(1 - shed_at)`` fraction of slots permanently unable to
        answer (with ``max_depth=1`` every admitted request would see
        pressure 1.0 and always shed).
        """
        return max(0, self._depth - 1) / self.max_depth

    def bucket_for(self, tenant: str) -> TokenBucket | None:
        """The tenant's quota bucket (None when quotas are disabled).

        The bucket table itself obeys the never-unbounded rule: at most
        ``max_tenants`` buckets live at once, maintained LRU (an access
        moves the tenant to the back of the eviction order).
        """
        if self.tenant_rate is None:
            return None
        bucket = self._buckets.pop(tenant, None)
        if bucket is None:
            if len(self._buckets) >= self.max_tenants:
                self._evict_bucket()
            bucket = TokenBucket(self.tenant_rate, self.tenant_burst, clock=self._clock)
        self._buckets[tenant] = bucket  # (re)insert at the LRU tail
        return bucket

    def _evict_bucket(self) -> None:
        """Drop one bucket to stay within ``max_tenants``.

        Prefer an *idle* (refilled-to-burst) bucket — lazily recreating
        one later is behaviourally identical.  Only when every tenant is
        actively draining does the least-recently-used bucket go,
        trading that tenant a fresh burst for bounded memory.
        """
        for name, bucket in self._buckets.items():
            if bucket.available >= bucket.burst:
                del self._buckets[name]
                return
        del self._buckets[next(iter(self._buckets))]

    # ------------------------------------------------------------------
    def admit(self, tenant: str = "default") -> AdmissionTicket:
        """Admit one request or reject it *now* — never queue unboundedly.

        Raises :class:`ServiceOverloadError` with ``reason="quota"``
        (tenant bucket dry) or ``reason="queue-full"`` (bounded queue at
        capacity).  On success returns a ticket the caller must
        :meth:`release` when the request leaves the system.
        """
        self.charge(tenant)
        if self._depth >= self.max_depth:
            self.stats.add("rejected_queue")
            raise ServiceOverloadError(
                f"admission queue full ({self._depth}/{self.max_depth})",
                reason="queue-full",
                queue_depth=self._depth,
                tenant=tenant,
            )
        self._depth += 1
        self.stats.add("admitted")
        self.stats.raise_to("high_water", self._depth)
        return AdmissionTicket(tenant=tenant)

    def charge(self, tenant: str = "default") -> None:
        """Consume one quota token *without* taking a queue slot.

        The serving fast lane answers memo hits on the event loop —
        they occupy no executor capacity, so the bounded queue (a
        capacity guard) is rightly skipped — but per-tenant quotas are
        a client-facing rate contract and must bill every answered
        request.  Raises the same ``reason="quota"`` overload as
        :meth:`admit` when the tenant's bucket is dry.
        """
        bucket = self.bucket_for(tenant)
        if bucket is not None and not bucket.try_acquire():
            self.stats.add("rejected_quota")
            raise ServiceOverloadError(
                f"tenant {tenant!r} exceeded its quota "
                f"({self.tenant_rate:g} q/s, burst {self.tenant_burst:g})",
                reason="quota",
                tenant=tenant,
                queue_depth=self._depth,
            )

    def release(self, ticket: AdmissionTicket) -> None:
        """Return the ticket's queue slot (idempotent per ticket)."""
        if ticket.released:
            return
        ticket.released = True
        self._depth -= 1
        self.stats.add("released")

    def __repr__(self) -> str:
        return (
            f"AdmissionController(depth={self._depth}/{self.max_depth}, "
            f"pressure={self.pressure:.2f})"
        )
