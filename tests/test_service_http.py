"""End-to-end service tests over a real socket.

The headline property (the PR's acceptance criterion): the fig3, fig9
and table1 grids fetched through :class:`ServiceClient` are
byte-identical — per ``RunStats.to_dict()`` — to in-process
``Engine.run_many`` on the same specs, and a warm restart of the
service over the same result cache answers the whole grid with
``simulations=0``.
"""

import http.client
import json

import pytest

from repro.engine import Engine, RunSpec, Sweep
from repro.harness.experiments import paper_grids
from repro.service import (
    SCHEMA_VERSION,
    ServiceClient,
    ServiceError,
    background_server,
)

BENCH = "gsm_encode"


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("service-cache")
    engine = Engine(jobs=2, cache_dir=cache_dir)
    with background_server(engine, window=0.01) as server:
        yield server, ServiceClient(server.url), cache_dir


def test_health_and_stats_shape(service):
    _server, client, _cache = service
    assert client.health() == {"schema_version": SCHEMA_VERSION,
                               "status": "ok"}
    stats = client.stats()
    assert stats["schema_version"] == SCHEMA_VERSION
    assert set(stats["engine"]) == {"simulations", "memo_hits",
                                    "disk_hits", "stores", "dispatches",
                                    "grid_groups", "grid_fallbacks"}
    assert set(stats["scheduler"]) == {"submitted", "coalesced",
                                       "batches", "batched_specs"}
    assert stats["backend"]["name"] == "process"
    assert stats["cache"]["enabled"] is True


def test_paper_grids_parity_and_warm_restart(service, tmp_path):
    """fig3+fig9+table1 through the service == in-process engine."""
    server, client, cache_dir = service
    grid = paper_grids()

    remote = client.run_many(grid)
    local = Engine(use_cache=False, jobs=2).run_many(grid)
    assert set(remote) == set(local) == set(grid)
    for spec in grid:
        assert remote[spec].to_dict() == local[spec].to_dict(), spec

    # rerun against the same live server: all memo hits, answered in
    # the submit reply itself, no new sims
    before = client.stats()["engine"]
    job = client.submit(grid)
    assert job.status == "done"
    again = job.stats_by_spec()
    after = client.stats()["engine"]
    assert after["simulations"] == before["simulations"]
    for spec in grid:
        assert again[spec].to_dict() == remote[spec].to_dict()
    assert client.poll(job.job_id).status == "done"

    # cold-started service over the same cache: zero simulations; the
    # first fetch reads the disk (through a batch), the next is inline
    warm_engine = Engine(jobs=2, cache_dir=cache_dir)
    with background_server(warm_engine, window=0.01) as warm_server:
        warm_client = ServiceClient(warm_server.url)
        warm = warm_client.run_many(grid)
        stats = warm_client.stats()
        rerun = warm_client.submit(grid)
    assert stats["engine"]["simulations"] == 0
    assert stats["engine"]["disk_hits"] == len(grid)
    for spec in grid:
        assert warm[spec].to_dict() == remote[spec].to_dict()
    assert rerun.status == "done"
    assert {spec: result.to_dict()
            for spec, result in rerun.stats_by_spec().items()} == \
        {spec: result.to_dict() for spec, result in warm.items()}


def test_sweep_submission_expands_server_side(service):
    _server, client, _cache = service
    sweep = Sweep(benchmarks=(BENCH,), codings=("mom", "mom3d"),
                  memsystems=("ideal",))
    results = client.sweep(sweep)
    assert set(results) == set(sweep.specs())
    direct = client.run_many(sweep.specs())
    for spec in sweep.specs():
        assert results[spec].to_dict() == direct[spec].to_dict()


def test_concurrent_clients_share_one_simulation_pass(tmp_path):
    """Many threads fanning the same grid in: one simulation per unique
    spec, the rest coalesced server-side."""
    import threading

    engine = Engine(use_cache=False)
    specs = Sweep(benchmarks=(BENCH,), codings=("mom", "mom3d"),
                  memsystems=("ideal",)).specs()
    with background_server(engine, window=0.05) as server:
        results: list[dict] = []
        errors: list[Exception] = []

        def fan_in():
            try:
                client = ServiceClient(server.url)
                got = client.run_many(specs)
                results.append({s: r.to_dict() for s, r in got.items()})
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [threading.Thread(target=fan_in) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        scheduler_stats = server.scheduler.stats

    assert not errors
    assert len(results) == 6
    assert all(r == results[0] for r in results)
    # one simulation per unique spec, regardless of client count
    assert engine.stats.simulations == len(set(specs))
    assert scheduler_stats.coalesced + engine.stats.memo_hits > 0


def test_timing_model_override_rides_the_wire(service):
    _server, client, _cache = service
    batched = RunSpec(BENCH, "mom", "ideal")
    reference = RunSpec(BENCH, "mom", "ideal",
                        overrides={"timing_model": "reference"})
    results = client.run_many([batched, reference])
    assert results[batched].to_dict() == results[reference].to_dict()


# --- HTTP error surface -------------------------------------------------------


def _raw(server, method, path, body=None, headers=()):
    connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                            timeout=10)
    try:
        connection.request(method, path, body=body,
                           headers=dict(headers))
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def test_results_endpoint_queries_the_cache(service):
    """``GET /v1/results`` answers straight from the result cache."""
    _server, client, _cache = service
    specs = [RunSpec(BENCH, coding, "ideal")
             for coding in ("mmx", "mom", "mom3d")]
    expected = client.run_many(specs)

    reply = client.query_results(benchmark=BENCH, memsys="ideal")
    assert reply.layout in ("file", "segment")
    assert reply.truncated is False
    got = {spec: stats for spec, stats in reply.results}
    for spec in specs:
        assert got[spec].to_dict() == expected[spec].to_dict(), spec

    narrowed = client.query_results(benchmark=BENCH, coding="mom3d",
                                    memsys="ideal")
    assert {spec.coding for spec, _ in narrowed.results} == {"mom3d"}
    limited = client.query_results(benchmark=BENCH, memsys="ideal",
                                   limit=2)
    assert len(limited.results) == 2 and limited.truncated is True
    assert client.query_results(benchmark="no-such-bench").results == ()


def test_results_endpoint_rejects_bad_queries(service):
    server, _client, _cache = service
    for query in ("bogus=1", "limit=0", "limit=nope", "warm=maybe",
                  "l2_latency=soon"):
        status, body = _raw(server, "GET", f"/v1/results?{query}")
        assert status == 400, query
        assert json.loads(body)["error"]["code"] == "bad-query"
    status, _ = _raw(server, "GET", "/v1/results?version=unknown-ver")
    assert status == 200  # unknown version: empty results, not an error


def test_results_scan_does_not_block_other_requests(tmp_path):
    """``GET /v1/results`` scans the store on a thread: a health probe
    is answered while a slow scan is still held."""
    import threading

    engine = Engine(cache_dir=tmp_path, backend="inline")
    spec = RunSpec(BENCH, "mom", "ideal")
    scanning, release = threading.Event(), threading.Event()
    returned = threading.Event()
    real_query = engine.cache.query

    def held_query(**filters):
        scanning.set()
        release.wait(timeout=5)
        try:
            return real_query(**filters)
        finally:
            returned.set()

    engine.cache.query = held_query
    replies = []
    with background_server(engine, window=0.01) as server:
        ServiceClient(server.url).run_many([spec])
        scan = threading.Thread(target=lambda: replies.append(
            ServiceClient(server.url).query_results(benchmark=BENCH)))
        scan.start()
        try:
            assert scanning.wait(timeout=10)
            assert ServiceClient(server.url).health()["status"] == "ok"
            assert not returned.is_set()  # answered mid-scan
        finally:
            release.set()
            scan.join(timeout=10)
    assert returned.is_set()
    assert len(replies) == 1  # the scan's 200 reply
    assert [got for got, _stats in replies[0].results] == [spec]


def test_results_endpoint_404_without_cache():
    engine = Engine(use_cache=False, backend="inline")
    with background_server(engine, window=0.01) as server:
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(server.url).query_results()
        assert excinfo.value.status == 404
        assert excinfo.value.reply.code == "no-cache"


def test_unknown_endpoint_404(service):
    server, _client, _cache = service
    status, body = _raw(server, "GET", "/v2/jobs")
    assert status == 404
    assert json.loads(body)["error"]["code"] == "not-found"


def test_wrong_method_405(service):
    server, _client, _cache = service
    status, body = _raw(server, "DELETE", "/v1/jobs")
    assert status == 405
    assert json.loads(body)["error"]["code"] == "method-not-allowed"


def test_unknown_job_404(service):
    _server, client, _cache = service
    with pytest.raises(ServiceError) as excinfo:
        client.poll("definitely-not-a-job")
    assert excinfo.value.status == 404
    assert excinfo.value.reply is not None
    assert excinfo.value.reply.code == "unknown-job"


def test_client_url_parsing():
    client = ServiceClient("http://gateway.internal/repro/")
    assert (client.host, client.port, client.prefix) == \
        ("gateway.internal", 80, "/repro")
    v6 = ServiceClient("http://[::1]:8737")
    assert (v6.host, v6.port, v6.prefix) == ("::1", 8737, "")
    bare = ServiceClient("127.0.0.1:9000")
    assert (bare.host, bare.port) == ("127.0.0.1", 9000)
    with pytest.raises(ValueError, match="scheme"):
        ServiceClient("https://secure.example")


def test_negative_content_length_400(service):
    server, _client, _cache = service
    status, body = _raw(server, "POST", "/v1/jobs", body=b"",
                        headers=[("Content-Length", "-1")])
    assert status == 400
    assert json.loads(body)["error"]["code"] == "bad-request"


def test_header_flood_400(service):
    server, _client, _cache = service
    status, body = _raw(server, "GET", "/v1/health",
                        headers=[(f"x-flood-{i}", "a")
                                 for i in range(200)])
    assert status == 400
    assert "headers" in json.loads(body)["error"]["message"]


def test_bad_json_400(service):
    server, _client, _cache = service
    status, body = _raw(server, "POST", "/v1/jobs", body=b"{nope",
                        headers=[("Content-Length", "5")])
    assert status == 400
    assert json.loads(body)["error"]["code"] == "bad-json"


def test_malformed_request_400_with_structured_errors(service):
    server, _client, _cache = service
    payload = json.dumps({"schema_version": SCHEMA_VERSION,
                          "specs": [{"benchmark": BENCH}]}).encode()
    status, body = _raw(server, "POST", "/v1/jobs", body=payload)
    assert status == 400
    error = json.loads(body)["error"]
    assert error["code"] == "invalid-request"
    assert error["errors"][0]["path"] == "$.specs[0].coding"


def test_schema_version_mismatch_400(service):
    server, _client, _cache = service
    payload = json.dumps({"schema_version": 999,
                          "specs": [{"benchmark": BENCH,
                                     "coding": "mom"}]}).encode()
    status, body = _raw(server, "POST", "/v1/jobs", body=payload)
    assert status == 400
    assert "unsupported schema version" in \
        json.loads(body)["error"]["message"]


def test_work_endpoints_404_without_remote_backend(service):
    """A local-backend service has no work queue: workers asking for
    shards must get a structured refusal, not an empty lease."""
    server, client, _cache = service
    payload = json.dumps({"schema_version": SCHEMA_VERSION,
                          "worker_id": "w1"}).encode()
    status, body = _raw(server, "POST", "/v1/work/lease", body=payload)
    assert status == 404
    assert json.loads(body)["error"]["code"] == "no-work-queue"
    with pytest.raises(ServiceError) as excinfo:
        client.lease_work("w1")
    assert excinfo.value.reply.code == "no-work-queue"


def test_work_lease_rejects_malformed_payload():
    from repro.engine import Engine, RemoteBackend

    engine = Engine(use_cache=False,
                    backend=RemoteBackend(wait_timeout=5))
    with background_server(engine) as server:
        payload = json.dumps({"schema_version": SCHEMA_VERSION}).encode()
        status, body = _raw(server, "POST", "/v1/work/lease",
                            body=payload)
        assert status == 400
        error = json.loads(body)["error"]
        assert error["errors"][0]["path"] == "$.worker_id"

        completion = json.dumps({
            "schema_version": SCHEMA_VERSION, "worker_id": "w1",
            "lease_id": "nope", "shard_id": "nope",
            "results": [{"spec": {"benchmark": BENCH, "coding": "mom"},
                         "stats": {}}]}).encode()
        status, body = _raw(server, "POST", "/v1/work/complete",
                            body=completion)
        assert status == 400  # malformed RunStats payload

        # well-formed but naming a shard this queue never issued
        from repro.engine.parallel import execute_spec
        spec = RunSpec(BENCH, "mom", "ideal")
        stats = execute_spec(spec)
        completion = json.dumps({
            "schema_version": SCHEMA_VERSION, "worker_id": "w1",
            "lease_id": "nope", "shard_id": "nope",
            "results": [{"spec": spec.to_dict(),
                         "stats": stats.to_dict()}]}).encode()
        status, body = _raw(server, "POST", "/v1/work/complete",
                            body=completion)
        assert status == 400
        assert json.loads(body)["error"]["code"] == "invalid-work"


def test_unknown_benchmark_rejected_at_submission(service):
    """Benchmarks are validated at the wire, not at build time: an
    unknown name is a structured 400, never a later failed job."""
    _server, client, _cache = service
    with pytest.raises(ServiceError) as excinfo:
        client.submit([RunSpec("no_such_bench", "mom")])
    assert excinfo.value.status == 400
    assert excinfo.value.reply is not None
    assert "no_such_bench" in excinfo.value.reply.message


def test_execution_error_becomes_failed_job(service):
    """Errors only detectable at build time (an override field no
    config layer owns) surface as a failed job, not a traceback."""
    _server, client, _cache = service
    job = client.submit([RunSpec(BENCH, "mom", "ideal",
                                 overrides={"warp_size": 32})])
    with pytest.raises(ServiceError, match="warp_size"):
        client.wait(job.job_id, timeout=30)


def test_running_job_limit_maps_to_429(service):
    server, client, _cache = service
    old_limit = server.jobs.limit
    server.jobs.limit = 0
    try:
        with pytest.raises(ServiceError) as excinfo:
            client.submit([RunSpec(BENCH, "mom", "ideal")])
        assert excinfo.value.status == 429
        assert excinfo.value.reply is not None
        assert excinfo.value.reply.code == "too-many-jobs"
    finally:
        server.jobs.limit = old_limit
