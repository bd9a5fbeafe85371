"""Open-loop load generation and the ``BENCH_serve.json`` schema.

An **open-loop** generator fires requests on a fixed arrival schedule
(``rate_qps``) regardless of how fast the server answers — unlike a
closed loop, it cannot be throttled by the very slowness it is trying to
measure, which is exactly what exposes latency collapse and unbounded
queueing under overload (the coordinated-omission trap).

The generator is deterministic: arrivals are evenly spaced, queries are
drawn round-robin from the given list, and all randomness lives in the
caller's dataset construction.  :func:`run_load` drives an
:class:`~repro.serve.loop.EstimationServer` for a fixed duration and
returns a :class:`LoadReport` with throughput, latency percentiles, and
per-outcome counts; :func:`validate_bench_report` is the schema check
both the benchmark and the CI smoke apply to ``BENCH_serve.json``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import EstimationTimeout, ServiceOverloadError
from .loop import EstimationServer, ServeRequest

__all__ = ["LoadReport", "run_load", "validate_bench_report"]


@dataclass
class LoadReport:
    """Outcome of one open-loop run against one server."""

    offered_qps: float  #: the arrival rate the generator aimed for
    duration_s: float  #: measured wall-clock span of the run
    sent: int = 0
    ok: int = 0  #: answered (possibly degraded) responses
    degraded: int = 0  #: answered responses with ``provenance.degraded``
    shed: int = 0  #: typed ServiceOverloadError rejections (any reason)
    timeouts: int = 0  #: EstimationTimeout that survived the ladder
    errors: int = 0  #: any other exception (should be zero)
    latencies_s: "list[float]" = field(default_factory=list, repr=False)
    rungs: "dict[str, int]" = field(default_factory=dict)
    vias: "dict[str, int]" = field(default_factory=dict)  #: execution paths ("memo", "batch", ...)
    shed_reasons: "dict[str, int]" = field(default_factory=dict)

    @property
    def achieved_qps(self) -> float:
        """Answered requests per second of run wall-clock."""
        return self.ok / self.duration_s if self.duration_s > 0 else 0.0

    def percentile_ms(self, q: float) -> float:
        """The ``q``-th latency percentile in milliseconds (0 when empty)."""
        if not self.latencies_s:
            return 0.0
        return float(np.quantile(np.asarray(self.latencies_s), q / 100.0)) * 1e3

    def snapshot(self) -> dict[str, object]:
        """The regime entry written into ``BENCH_serve.json``."""
        return {
            "offered_qps": self.offered_qps,
            "achieved_qps": self.achieved_qps,
            "duration_s": self.duration_s,
            "sent": self.sent,
            "ok": self.ok,
            "degraded": self.degraded,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "latency_ms": {
                "p50": self.percentile_ms(50),
                "p95": self.percentile_ms(95),
                "p99": self.percentile_ms(99),
            },
            "rungs": dict(self.rungs),
            "vias": dict(self.vias),
            "shed_reasons": dict(self.shed_reasons),
        }


async def run_load(
    server: EstimationServer,
    requests: Sequence[ServeRequest],
    *,
    rate_qps: float,
    duration_s: float,
) -> LoadReport:
    """Drive ``server`` open-loop at ``rate_qps`` for ``duration_s``.

    Requests are drawn round-robin from ``requests`` and fired on a
    fixed schedule whether or not earlier ones have answered; the run
    then awaits every outstanding request (sheds answer instantly, so
    the drain is bounded by the server's own deadline discipline).
    """
    if not requests:
        raise ValueError("run_load needs at least one request template")
    if rate_qps <= 0 or duration_s <= 0:
        raise ValueError(
            f"rate_qps and duration_s must be > 0, got {rate_qps}, {duration_s}"
        )
    loop = asyncio.get_running_loop()
    report = LoadReport(offered_qps=rate_qps, duration_s=duration_s)
    spacing = 1.0 / rate_qps
    total = int(rate_qps * duration_s)
    started = loop.time()
    tasks: "list[asyncio.Task[object]]" = []
    for i in range(total):
        target = started + i * spacing
        delay = target - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        request = requests[i % len(requests)]
        tasks.append(loop.create_task(server.submit(request)))
        report.sent += 1
    outcomes = await asyncio.gather(*tasks, return_exceptions=True)
    report.duration_s = loop.time() - started
    for outcome in outcomes:
        _classify(report, outcome)
    return report


def _classify(report: LoadReport, outcome: object) -> None:
    """Fold one request outcome into the report's counters."""
    if isinstance(outcome, ServiceOverloadError):
        report.shed += 1
        report.shed_reasons[outcome.reason] = (
            report.shed_reasons.get(outcome.reason, 0) + 1
        )
        return
    if isinstance(outcome, EstimationTimeout):
        report.timeouts += 1
        return
    if isinstance(outcome, BaseException):
        report.errors += 1
        return
    # An answered ServeResponse (duck-typed to avoid a hard import cycle
    # in type checking — run_load only ever collects server responses).
    report.ok += 1
    response = outcome
    report.latencies_s.append(float(response.latency_s))  # type: ignore[attr-defined]
    provenance = response.provenance  # type: ignore[attr-defined]
    report.rungs[provenance.rung] = report.rungs.get(provenance.rung, 0) + 1
    report.vias[provenance.via] = report.vias.get(provenance.via, 0) + 1
    if provenance.degraded:
        report.degraded += 1


#: Required numeric fields in every regime entry of ``BENCH_serve.json``.
_REGIME_FIELDS = (
    "offered_qps",
    "achieved_qps",
    "duration_s",
    "sent",
    "ok",
    "shed",
    "timeouts",
    "errors",
)

#: The three regimes the benchmark must exercise.
_REGIMES = ("healthy", "overloaded", "faulted")


def validate_bench_report(report: object) -> "list[str]":
    """Structural problems with a ``BENCH_serve.json`` payload ([] = valid).

    Checks the contract CI relies on: the three regimes are present,
    each carries the throughput/outcome counters and an internally
    consistent ``latency_ms`` block (p50 <= p95 <= p99), and the fault
    regime reports how many faults it injected (at least one).
    Value-level assertions (sheds under overload, recovery after
    faults) belong to the benchmark itself — this is the schema gate.
    """
    problems: "list[str]" = []
    if not isinstance(report, dict):
        return [f"report must be a JSON object, got {type(report).__name__}"]
    if report.get("bench") != "serve":
        problems.append("top-level 'bench' must equal 'serve'")
    regimes = report.get("regimes")
    if not isinstance(regimes, dict):
        return problems + ["top-level 'regimes' must be an object"]
    for name in _REGIMES:
        entry = regimes.get(name)
        if not isinstance(entry, dict):
            problems.append(f"regimes.{name} missing or not an object")
            continue
        for fieldname in _REGIME_FIELDS:
            if not isinstance(entry.get(fieldname), (int, float)):
                problems.append(f"regimes.{name}.{fieldname} missing or non-numeric")
        latency = entry.get("latency_ms")
        if not isinstance(latency, dict):
            problems.append(f"regimes.{name}.latency_ms missing or not an object")
        else:
            quantiles = [latency.get(k) for k in ("p50", "p95", "p99")]
            if not all(isinstance(v, (int, float)) for v in quantiles):
                problems.append(f"regimes.{name}.latency_ms needs numeric p50/p95/p99")
            elif not (quantiles[0] <= quantiles[1] <= quantiles[2]):
                problems.append(
                    f"regimes.{name}.latency_ms must satisfy p50 <= p95 <= p99"
                )
        if not isinstance(entry.get("rungs"), dict):
            problems.append(f"regimes.{name}.rungs missing or not an object")
    faulted = regimes.get("faulted")
    if isinstance(faulted, dict):
        injected = faulted.get("injected_faults")
        if not isinstance(injected, (int, float)) or injected < 1:
            problems.append("regimes.faulted.injected_faults missing, non-numeric or < 1")
    return problems
