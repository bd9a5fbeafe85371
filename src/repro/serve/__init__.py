"""The asyncio serving front door over the estimation stack.

Everything below this package answers *one* selectivity question as
well as it can; this package answers *millions*, concurrently, without
falling over.  The pipeline, in request order:

* :mod:`~repro.serve.admission` — bounded queue + per-tenant token
  buckets; over capacity is an immediate typed
  :class:`~repro.errors.ServiceOverloadError`, never unbounded
  buffering;
* :mod:`~repro.serve.degrade` — queue pressure selects a rung (full →
  cached-coarse → parametric → shed); the answering rungs are the
  requested estimator's
  :func:`~repro.service.resilient.default_fallback_chain`, and rung
  failures walk down that chain; every response carries
  :class:`~repro.serve.degrade.ServeProvenance`;
* :mod:`~repro.serve.batcher` — concurrent queries coalesce into one
  :func:`~repro.perf.batch.estimate_many` call with poison-query
  isolation (a failed batch retries its members solo);
* :mod:`~repro.serve.loop` — :class:`EstimationServer`, the async
  entry point tying the stages together with end-to-end cooperative
  deadlines.

``perfbench/run.py --workload serve-miss`` drives the server with
closed-loop clients; the overload and fault regimes are chaos tests
(``pytest -m chaos``).
"""

from .admission import AdmissionController, AdmissionTicket, TokenBucket
from .batcher import MicroBatcher
from .degrade import DegradationLadder, DegradePolicy, ServeProvenance, ServiceRung
from .loop import EstimationServer, ServeRequest, ServeResponse, ServerConfig

__all__ = [
    "AdmissionController",
    "AdmissionTicket",
    "TokenBucket",
    "MicroBatcher",
    "DegradationLadder",
    "DegradePolicy",
    "ServeProvenance",
    "ServiceRung",
    "EstimationServer",
    "ServeRequest",
    "ServeResponse",
    "ServerConfig",
]
