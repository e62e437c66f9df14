"""Dependency-free metric registry with Prometheus text exposition.

The fleet's observability backbone: every layer of the service —
scheduler, engine, work queue, worker fleet, result cache — registers
its series in one :class:`Metrics` registry, and ``GET /v1/metrics``
renders the whole registry in the Prometheus text format (version
0.0.4), so a stock Prometheus scrape (or plain ``curl``) sees queue
depth, lease ages, cache hit ratio and job-latency histograms without
any third-party client library.

Three instrument kinds, all thread-safe:

* :class:`Counter` — monotonically increasing total (``*_total``
  names by convention), backed by a zero-argument callback evaluated
  at scrape time, which is how existing counter structs
  (``EngineStats``, ``SchedulerStats``, ``WorkQueue.counters()``)
  surface without double-accounting.
* :class:`Gauge` — a value that can go up and down (queue depth,
  oldest lease age, cache occupancy), read from a callback the same
  way.
* :class:`Histogram` — fixed cumulative buckets plus ``_sum`` and
  ``_count`` series; p50/p99 are derivable from the bucket counts the
  standard Prometheus way (``histogram_quantile``).

``instrument_engine`` and ``instrument_work_queue`` bind the existing
counter structs by duck-typed attribute access — this module imports
nothing from the rest of ``repro``, so it can sit below the engine and
the service alike.  The full series catalog lives in
``docs/service.md``.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

#: Default histogram buckets for second-valued latencies: sub-10ms
#: scheduling overheads through multi-minute cold grid resolutions.
LATENCY_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                   1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)

#: Buckets for batch/shard sizes (spec counts per dispatch).
SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


def _format_value(value: float) -> str:
    """Render one sample value the Prometheus way (no stray ``.0``)."""
    number = float(value)
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _check_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ValueError(f"metric name {name!r} starts with a digit")
    return name


class _Instrument:
    """Shared plumbing: a validated name and help text."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help


class _Callback(_Instrument):
    """A series whose value is ``fn()``, evaluated at scrape time."""

    def __init__(self, name: str, help: str, fn: Callable[[], float]):
        super().__init__(name, help)
        self._fn = fn

    def samples(self) -> Iterable[tuple[str, str, float]]:
        """Yield ``(series name, label clause, value)`` triples."""
        yield self.name, "", float(self._fn())


class Counter(_Callback):
    """Monotonically increasing total."""

    kind = "counter"


class Gauge(_Callback):
    """A value that may go up or down."""

    kind = "gauge"


class Histogram(_Instrument):
    """Cumulative fixed-bucket histogram (+ ``_sum`` / ``_count``)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = LATENCY_BUCKETS):
        super().__init__(name, help)
        self._lock = threading.Lock()
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs >= 1 bucket")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name!r} has duplicate buckets")
        self.buckets = bounds
        self._counts = [0] * len(bounds)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._sum += value
            self._count += 1
            # per-bucket (non-cumulative) counts; exposition sums
            # them into the cumulative le= series
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += 1
                    break

    def samples(self) -> Iterable[tuple[str, str, float]]:
        with self._lock:
            counts = list(self._counts)
            total_sum, total_count = self._sum, self._count
        cumulative = 0
        for bound, count in zip(self.buckets, counts):
            cumulative += count
            yield (f"{self.name}_bucket",
                   f'{{le="{_format_value(bound)}"}}', cumulative)
        yield f"{self.name}_bucket", '{le="+Inf"}', total_count
        yield f"{self.name}_sum", "", total_sum
        yield f"{self.name}_count", "", total_count


class Metrics:
    """Registry of named instruments with text exposition.

    One registry per served process; duplicate names are a hard error
    (two components claiming one series would silently shadow each
    other).  ``name in metrics`` lets instrumentation helpers stay
    idempotent.
    """

    def __init__(self):
        self._instruments: dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    def _register(self, instrument: _Instrument) -> _Instrument:
        with self._lock:
            if instrument.name in self._instruments:
                raise ValueError(
                    f"metric {instrument.name!r} already registered")
            self._instruments[instrument.name] = instrument
        return instrument

    def counter(self, name: str, help: str = "", *,
                fn: Callable[[], float]) -> Counter:
        return self._register(Counter(name, help, fn))

    def gauge(self, name: str, help: str = "", *,
              fn: Callable[[], float]) -> Gauge:
        return self._register(Gauge(name, help, fn))

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = LATENCY_BUCKETS
                  ) -> Histogram:
        return self._register(Histogram(name, help, buckets))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._instruments

    def render(self) -> str:
        """The whole registry in Prometheus text format 0.0.4."""
        with self._lock:
            instruments = list(self._instruments.values())
        lines: list[str] = []
        for instrument in instruments:
            if instrument.help:
                escaped = instrument.help.replace("\\", "\\\\") \
                    .replace("\n", "\\n")
                lines.append(f"# HELP {instrument.name} {escaped}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            for series, labels, value in instrument.samples():
                lines.append(f"{series}{labels} {_format_value(value)}")
        return "\n".join(lines) + "\n"


# -- instrumentation binders (duck-typed; no repro imports) ----------------


def instrument_engine(metrics: Metrics, engine) -> None:
    """Register the engine's counter struct and cache occupancy.

    Reads ``engine.stats`` (an ``EngineStats``) and ``engine.cache``
    at scrape time — no mutation hooks, so binding an engine that is
    already mid-flight is safe.  Idempotent per registry.
    """
    if "repro_engine_simulations_total" in metrics:
        return
    stats = engine.stats
    for attr, help_text in (
            ("simulations", "Fresh simulations executed"),
            ("memo_hits", "Results served from the in-process memo"),
            ("disk_hits", "Results loaded from the persistent cache"),
            ("stores", "Results written to the persistent cache"),
            ("dispatches", "Backend execute() calls issued"),
            ("grid_groups", "Trace groups planned for the grid path"),
            ("grid_fallbacks",
             "Specs planned per spec (alone in their trace group, or "
             "a timing_model override)")):
        metrics.counter(f"repro_engine_{attr}_total", help_text,
                        fn=lambda a=attr: getattr(stats, a))

    def hit_ratio() -> float:
        hits = stats.memo_hits + stats.disk_hits
        looked_up = hits + stats.simulations
        return hits / looked_up if looked_up else 0.0

    metrics.gauge("repro_engine_cache_hit_ratio",
                  "Memo+disk hits over all resolved lookups (0 when "
                  "nothing resolved yet)", fn=hit_ratio)
    cache = getattr(engine, "cache", None)
    metrics.gauge("repro_cache_enabled",
                  "1 when the persistent result cache is enabled",
                  fn=lambda: 1.0 if cache is not None else 0.0)
    metrics.gauge("repro_cache_entries",
                  "Result-cache entries stored for the active code "
                  "version",
                  fn=lambda: len(cache) if cache is not None else 0)

    def store_metric(key: str) -> float:
        if cache is None:
            return 0.0
        return float(cache.store_metrics()[key])

    metrics.gauge("repro_cache_store_bytes",
                  "Bytes of segment-store data for the active code "
                  "version (0 when the cache is disabled)",
                  fn=lambda: store_metric("bytes"))
    metrics.gauge("repro_cache_segments",
                  "Segment files backing the active code version "
                  "(0 when the cache is disabled)",
                  fn=lambda: store_metric("segments"))

    def degraded(kind: str) -> float:
        counters = getattr(cache, "degraded_counters", None)
        if counters is None:
            return 0.0
        return float(counters().get(kind, 0))

    metrics.counter("repro_degraded_cache_writes_total",
                    "Results the cache failed to persist (store I/O "
                    "errors absorbed; the engine memo kept serving "
                    "them)", fn=lambda: degraded("writes"))
    metrics.counter("repro_degraded_cache_reads_total",
                    "Lookup batches the store failed outright "
                    "(normal misses are not degradation)",
                    fn=lambda: degraded("reads"))
    metrics.gauge("repro_degraded_cache",
                  "1 once the result cache has degraded to memo-only "
                  "at least once this process (store I/O errors)",
                  fn=lambda: 1.0 if (degraded("writes")
                                     or degraded("reads")) else 0.0)


#: WorkQueue counter keys surfaced as Prometheus counters.
_QUEUE_COUNTERS = (
    ("enqueued_shards", "Shards enqueued by the remote backend"),
    ("enqueued_specs", "Specs those shards carried"),
    ("leases", "Leases issued to workers"),
    ("releases", "Expired leases re-issued to another worker"),
    ("completions", "Shards completed (first completion wins)"),
    ("completed_specs", "Specs those completions carried"),
    ("duplicate_completions",
     "Completions for already-completed/retired shards"),
    ("late_completions",
     "Duplicate completions under a genuinely issued lease (both "
     "sides of the TTL re-lease race finishing, or a retried "
     "upload), acknowledged idempotently"),
    ("stale_completions",
     "Valid completions arriving under an expired lease id"),
    ("discarded", "Shards abandoned after a collect timeout"),
)


def instrument_work_queue(metrics: Metrics, queue) -> None:
    """Register the lease queue's counters, depth and lease ages.

    ``queue`` only needs a ``counters() -> dict`` method (the
    :class:`~repro.engine.backends.workqueue.WorkQueue` contract);
    every series reads a fresh snapshot at scrape time.  Idempotent
    per registry.
    """
    if "repro_queue_pending_shards" in metrics:
        return
    for key, help_text in _QUEUE_COUNTERS:
        metrics.counter(f"repro_queue_{key}_total", help_text,
                        fn=lambda k=key: queue.counters().get(k, 0))
    metrics.gauge("repro_queue_pending_shards",
                  "Shards enqueued but not yet leased (the fleet-sizing "
                  "signal)",
                  fn=lambda: queue.counters().get("pending_shards", 0))
    metrics.gauge("repro_queue_leased_shards",
                  "Shards currently out on a live lease",
                  fn=lambda: queue.counters().get("leased_shards", 0))
    metrics.gauge("repro_queue_oldest_lease_age_seconds",
                  "Age of the oldest outstanding lease (0 when none); "
                  "an age beyond the lease TTL means a worker died "
                  "mid-shard",
                  fn=lambda: queue.counters().get("oldest_lease_age",
                                                  0.0))
