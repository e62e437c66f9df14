"""Metric registry units and the ``/v1/metrics`` scrape contract.

The registry (:mod:`repro.service.metrics`) is dependency-free, so the
unit half pins its arithmetic and Prometheus text rendering directly;
the integration half scrapes a live :func:`background_server` and
asserts the series the CI smoke job and any real Prometheus deployment
depend on: presence, typing, monotone counters across scrapes, and
cache occupancy surviving a warm restart.
"""

from contextlib import closing

import pytest

from repro.engine import Engine, ResultCache, RunSpec
from repro.service import ServiceClient, ServiceError, background_server
from repro.service.metrics import (
    LATENCY_BUCKETS,
    Metrics,
    instrument_engine,
    instrument_work_queue,
)

BENCH = "gsm_encode"

SPECS = (RunSpec(BENCH, "mom", "ideal"),
         RunSpec(BENCH, "mom3d", "ideal"))


def _series(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        out[name] = float(value)
    return out


# --- registry units -----------------------------------------------------------


def test_counter_math_and_render():
    state = {"n": 3.5}
    metrics = Metrics()
    metrics.counter("repro_test_total", "Things counted.",
                    fn=lambda: state["n"])
    text = metrics.render()
    assert "# HELP repro_test_total Things counted." in text
    assert "# TYPE repro_test_total counter" in text
    assert "repro_test_total 3.5" in text
    assert text.endswith("\n")
    state["n"] = 7.0  # whole values render without a stray ".0"
    assert "repro_test_total 7\n" in metrics.render()


def test_callback_instruments_read_at_scrape_time():
    state = {"n": 0}
    metrics = Metrics()
    metrics.counter("live_total", fn=lambda: state["n"])
    metrics.gauge("live_gauge", fn=lambda: -state["n"] / 2)
    assert "# TYPE live_gauge gauge" in metrics.render()
    assert _series(metrics.render()) == {"live_total": 0,
                                         "live_gauge": 0}
    state["n"] = 7
    assert _series(metrics.render()) == {"live_total": 7,
                                         "live_gauge": -3.5}


def test_duplicate_name_rejected():
    metrics = Metrics()
    metrics.counter("twice_total", fn=lambda: 1)
    with pytest.raises(ValueError, match="already registered"):
        metrics.gauge("twice_total", fn=lambda: 2)
    assert "twice_total" in metrics
    assert "absent" not in metrics
    # the first registration keeps the series
    assert "# TYPE twice_total counter" in metrics.render()
    assert _series(metrics.render()) == {"twice_total": 1}


def test_invalid_metric_names_rejected():
    metrics = Metrics()
    for bad in ("", "has space", "9starts_with_digit", "dash-ed"):
        with pytest.raises(ValueError):
            metrics.counter(bad, fn=lambda: 0)


def test_histogram_buckets_cumulative_and_quantile_ready():
    metrics = Metrics()
    hist = metrics.histogram("lat_seconds", "Latency.",
                             buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        hist.observe(value)
    text = metrics.render()
    series = _series(text)
    assert series["lat_seconds_count"] == 5
    assert series["lat_seconds_sum"] == pytest.approx(56.05)
    # cumulative per-bucket counts, the histogram_quantile contract
    assert 'lat_seconds_bucket{le="0.1"} 1' in text
    assert 'lat_seconds_bucket{le="1"} 3' in text
    assert 'lat_seconds_bucket{le="10"} 4' in text
    assert 'lat_seconds_bucket{le="+Inf"} 5' in text
    assert "lat_seconds_count 5" in text
    with pytest.raises(ValueError, match="bucket"):
        metrics.histogram("empty_seconds", buckets=())
    with pytest.raises(ValueError, match="duplicate"):
        metrics.histogram("dup_seconds", buckets=(1.0, 1.0))


def test_default_latency_buckets_are_sorted():
    assert tuple(sorted(LATENCY_BUCKETS)) == LATENCY_BUCKETS


# --- engine / queue binders ---------------------------------------------------


def test_instrument_engine_series_and_hit_ratio(tmp_path):
    metrics = Metrics()
    with closing(Engine(cache_dir=tmp_path, backend="inline")) as engine:
        instrument_engine(metrics, engine)
        instrument_engine(metrics, engine)  # idempotent: no duplicate error
        # nothing resolved yet
        assert _series(metrics.render())["repro_engine_cache_hit_ratio"] == 0
        engine.run_many(SPECS)
        assert _series(metrics.render())[
            "repro_engine_simulations_total"] == 2
        engine.run_many(SPECS)  # all memo hits now
        series = _series(metrics.render())
    assert series["repro_engine_cache_hit_ratio"] == pytest.approx(0.5)
    assert series["repro_cache_enabled"] == 1
    assert series["repro_cache_entries"] == 2
    # segment-store footprint gauges
    assert series["repro_cache_store_bytes"] > 0
    assert series["repro_cache_segments"] >= 1


def test_store_gauges_zero_when_cache_disabled():
    metrics = Metrics()
    instrument_engine(metrics, Engine(use_cache=False, backend="inline"))
    series = _series(metrics.render())
    assert series["repro_cache_store_bytes"] == 0
    assert series["repro_cache_segments"] == 0


def test_instrument_work_queue_series():
    from repro.engine import WorkQueue

    queue = WorkQueue(lease_ttl=30.0)
    metrics = Metrics()
    instrument_work_queue(metrics, queue)
    instrument_work_queue(metrics, queue)  # idempotent
    queue.enqueue([SPECS])
    series = _series(metrics.render())
    assert series["repro_queue_pending_shards"] == 1
    assert series["repro_queue_enqueued_specs_total"] == 2
    lease = queue.lease("w1")
    assert lease is not None
    series = _series(metrics.render())
    assert series["repro_queue_leased_shards"] == 1
    assert series["repro_queue_oldest_lease_age_seconds"] >= 0.0


# --- incremental cache occupancy ----------------------------------------------


def test_cache_len_is_incremental(tmp_path):
    with closing(Engine(cache_dir=tmp_path, backend="inline")) as engine, \
            closing(ResultCache(tmp_path)) as other:
        results = engine.run_many(SPECS)
        cache = engine.cache
        assert len(cache) == 2
        # overwriting an existing digest does not inflate the count
        cache.put(SPECS[0], results[SPECS[0]])
        assert len(cache) == 2
        # a new view over the same directory scans the same entries
        assert len(other) == 2
        # ...and picks up this process's later writes via refresh_count
        spec = RunSpec(BENCH, "mmx", "ideal")
        cache.put(spec, results[SPECS[0]])
        assert len(cache) == 3
        assert len(other) == 2  # stale by design until refreshed
        assert other.refresh_count() == 3


# --- the /v1/metrics endpoint -------------------------------------------------


CORE_SERIES = (
    "repro_engine_simulations_total",
    "repro_engine_memo_hits_total",
    "repro_engine_disk_hits_total",
    "repro_engine_cache_hit_ratio",
    "repro_cache_entries",
    "repro_scheduler_submitted_total",
    "repro_scheduler_batches_total",
    'repro_scheduler_job_latency_seconds_bucket{le="+Inf"}',
    "repro_scheduler_job_latency_seconds_sum",
    "repro_scheduler_batch_size_specs_count",
    "repro_fleet_workers",
    "repro_fleet_failed_shards",
    "repro_worker_shard_seconds_count",
)


def test_metrics_endpoint_scrape_and_warm_restart(tmp_path):
    with closing(Engine(cache_dir=tmp_path, backend="inline")) as engine, \
            background_server(engine) as server, \
            closing(ServiceClient(server.url)) as client:
        first = _series(client.metrics())
        for name in CORE_SERIES:
            assert name in first, f"missing series {name}"
        assert first["repro_engine_simulations_total"] == 0
        client.run_many(SPECS)
        second = _series(client.metrics())
        assert second["repro_engine_simulations_total"] == 2
        assert second["repro_scheduler_submitted_total"] == 2
        assert second["repro_cache_entries"] == 2
        latency_count = \
            second["repro_scheduler_job_latency_seconds_count"]
        assert latency_count == 2
        assert second["repro_scheduler_job_latency_seconds_sum"] > 0
        # counters are monotone across scrapes with work in between
        client.run_many(SPECS)
        third = _series(client.metrics())
        for name, value in second.items():
            if name.endswith("_total"):
                assert third[name] >= value, name
    # warm restart over the same cache directory: a fresh server sees
    # the stored entries and serves the grid without simulating
    with closing(Engine(cache_dir=tmp_path, backend="inline")) as engine, \
            background_server(engine) as server, \
            closing(ServiceClient(server.url)) as client:
        assert _series(client.metrics())["repro_cache_entries"] == 2
        client.run_many(SPECS)
        warm = _series(client.metrics())
        assert warm["repro_engine_simulations_total"] == 0
        assert warm["repro_engine_disk_hits_total"] == 2
        assert warm["repro_engine_cache_hit_ratio"] == 1.0


def test_metrics_content_type_and_method():
    with closing(Engine(use_cache=False, backend="inline")) as engine, \
            background_server(engine) as server, \
            closing(ServiceClient(server.url)) as client:
        import http.client

        connection = http.client.HTTPConnection(server.host,
                                                server.port, timeout=10)
        try:
            connection.request("GET", "/v1/metrics")
            response = connection.getresponse()
            assert response.status == 200
            content_type = response.getheader("Content-Type")
            body = response.read().decode("utf-8")
        finally:
            connection.close()
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert "# TYPE repro_engine_simulations_total counter" in body
        with pytest.raises(ServiceError):  # POST is not allowed
            client._request("POST", "/v1/metrics", {})


def test_background_server_plumbs_max_jobs():
    with closing(Engine(use_cache=False, backend="inline")) as engine, \
            background_server(engine, max_jobs=0) as server, \
            closing(ServiceClient(server.url)) as client:
        with pytest.raises(ServiceError) as excinfo:
            client.submit(SPECS)
        assert excinfo.value.status == 429
        assert excinfo.value.reply.code == "too-many-jobs"
