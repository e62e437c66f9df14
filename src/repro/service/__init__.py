"""Job-oriented service API over the simulation engine.

The execution API, redesigned around *jobs* instead of direct calls:

* :mod:`repro.service.schema` — versioned JSON wire format
  (``JobRequest`` / ``JobResult`` / ``ErrorReply``) with total
  round-trip encoding of ``RunSpec`` and ``RunStats``;
* :mod:`repro.service.scheduler` — asyncio scheduler over one shared,
  lock-protected :class:`~repro.engine.Engine` (in-flight dedup, one
  ``run_many`` dispatch per submission, executor offload);
* :mod:`repro.service.server` — stdlib-asyncio HTTP server
  (``POST /v1/jobs``, ``GET /v1/jobs/<id>``, ``/v1/results``,
  ``/v1/health``, ``/v1/stats``, ``/v1/metrics`` and the worker
  ``/v1/work/*`` endpoints);
* :mod:`repro.service.metrics` — dependency-free metric registry
  (counters / gauges / fixed-bucket histograms) rendered as a
  Prometheus text exposition on ``GET /v1/metrics``;
* :mod:`repro.service.client` — blocking ``ServiceClient`` SDK whose
  ``run_many``/``sweep`` return the in-process engine's result shape;
* :mod:`repro.service.worker` — the pull-based ``ServiceWorker`` loop
  behind ``repro worker`` (lease a shard, simulate locally, upload —
  the execution half of the engine's remote backend);
* :mod:`repro.service.faults` — the deterministic fault-injection
  harness (``FaultPlan``) behind the chaos tests and
  ``REPRO_FAULTS``.

``repro serve`` hosts it; ``repro submit`` talks to it; ``repro
worker`` executes for it, and an operator sizes the fleet by starting
more of them.  See ``docs/service.md`` for endpoints, wire schema and
batching semantics, ``docs/backends.md`` for the worker protocol, and
``docs/operations.md`` for running a resilient fleet.
"""

from repro.lazy import lazy_exports
from repro.service.faults import (
    FaultPlan,
    FaultSpecError,
    InjectedFault,
    NO_FAULTS,
)

# Only the fault harness loads with the package: the engine's segment
# store reads its fault plan whenever it opens.  The rest (asyncio,
# HTTP) loads on first access, when a command serves, submits or
# works.
__getattr__ = lazy_exports(__name__, {
    "repro.service.client": ("ServiceClient", "ServiceError"),
    "repro.service.metrics": ("Counter", "Gauge", "Histogram", "Metrics",
                              "instrument_engine",
                              "instrument_work_queue"),
    "repro.service.scheduler": ("BatchScheduler", "Job", "JobStore",
                                "SchedulerStats"),
    "repro.service.schema": ("SCHEMA_VERSION", "ErrorReply", "JobRequest",
                             "JobResult", "SchemaError", "WorkCompletion",
                             "WorkLeaseGrant"),
    "repro.service.server": ("ServiceServer", "background_server",
                             "serve"),
    "repro.service.worker": ("ServiceWorker", "WorkerStats", "work"),
})

__all__ = [
    "NO_FAULTS", "SCHEMA_VERSION", "BatchScheduler", "Counter",
    "ErrorReply", "FaultPlan", "FaultSpecError", "Gauge", "Histogram",
    "InjectedFault", "Job", "JobRequest", "JobResult", "JobStore",
    "Metrics", "SchedulerStats", "SchemaError", "ServiceClient",
    "ServiceError", "ServiceServer", "ServiceWorker", "WorkCompletion",
    "WorkLeaseGrant", "WorkerStats", "background_server",
    "instrument_engine", "instrument_work_queue", "serve", "work",
]
