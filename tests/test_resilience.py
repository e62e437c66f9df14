"""Job deadlines, the client's fail-fast refusals, graceful drain, and
cache degradation — the service's refusal-and-recovery surfaces.

Unit halves run on injectable clocks (no real sleeping); the HTTP
halves run over a real socket through :func:`background_server` to pin
the status codes and ``Retry-After`` headers actual clients see.
"""

import asyncio

import pytest

from repro.engine import Engine, ResultCache, RunSpec
from repro.engine.store import CorruptFrameError, SegmentStore
from repro.service import (
    Job,
    JobRequest,
    SchemaError,
    ServiceClient,
    ServiceError,
    background_server,
)
from repro.service.client import _parse_retry_after
from repro.service.schema import JOB_STATUSES, spec_to_wire
from repro.timing.stats import RunStats

BENCH = "gsm_encode"
SPEC = RunSpec(BENCH, "mom", "ideal")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# --- the client fails fast ----------------------------------------------------


def test_no_budget_fails_fast():
    """A refusal (429, 503), a client error (400) or a transport
    failure raises on the first attempt, without sleeping; the caller
    decides what comes next."""
    slept = []
    client = ServiceClient("http://127.0.0.1:1", sleep=slept.append)
    for error in (ServiceError(429, None, retry_after=1.0),
                  ServiceError(503, None, retry_after=1.0),
                  ServiceError(400, None),
                  ConnectionRefusedError("refused")):
        calls = []

        def send(method, path, payload=None):
            calls.append(path)
            raise error

        client._send = send
        with pytest.raises(type(error)):
            client._request("POST", "/v1/jobs", {})
        assert len(calls) == 1, error
    assert slept == []


def test_retry_after_header_parsing():
    assert _parse_retry_after(None) is None
    assert _parse_retry_after("2") == 2.0
    assert _parse_retry_after(" 1.5 ") == 1.5
    assert _parse_retry_after("-3") == 0.0
    assert _parse_retry_after("soon") is None


# --- job deadlines ------------------------------------------------------------


def test_job_statuses_include_expired():
    assert "expired" in JOB_STATUSES


def test_job_request_deadline_rides_the_wire():
    request = JobRequest(specs=(SPEC,), deadline=2.5)
    wire = request.to_wire()
    assert wire["deadline"] == 2.5
    assert JobRequest.from_wire(wire).deadline == 2.5
    assert "deadline" not in JobRequest(specs=(SPEC,)).to_wire()


def test_job_request_deadline_validation():
    with pytest.raises(SchemaError):
        JobRequest(specs=(SPEC,), deadline=0)
    base = JobRequest(specs=(SPEC,)).to_wire()
    for bad in (-1, 0, True, "soon"):
        with pytest.raises(SchemaError):
            JobRequest.from_wire({**base, "deadline": bad})


def test_job_expires_at_deadline_with_structured_error():
    loop = asyncio.new_event_loop()
    try:
        clock = FakeClock()
        future = loop.create_future()
        job = Job([SPEC], [future], deadline=5.0, clock=clock)
        assert job.status() == "running"
        clock.now = 4.99
        assert job.status() == "running"
        clock.now = 5.0
        assert job.status() == "expired"
        snapshot = job.snapshot()
        assert snapshot.status == "expired"
        assert "deadline of 5s exceeded" in snapshot.error
        assert "1 of 1" in snapshot.error
        # the simulation is never cancelled: a late result still
        # resolves the job (and warmed the cache for a resubmission)
        future.set_result(RunStats(name="x"))
        assert job.status() == "done"
    finally:
        loop.close()


def test_job_finishing_before_deadline_stays_done():
    loop = asyncio.new_event_loop()
    try:
        clock = FakeClock()
        future = loop.create_future()
        future.set_result(RunStats(name="x"))
        job = Job([SPEC], [future], deadline=5.0, clock=clock)
        clock.now = 100.0
        assert job.status() == "done"
    finally:
        loop.close()


def test_job_without_deadline_never_expires():
    loop = asyncio.new_event_loop()
    try:
        clock = FakeClock()
        job = Job([SPEC], [loop.create_future()], clock=clock)
        clock.now = 1e9
        assert job.status() == "running"
    finally:
        loop.close()


# --- graceful drain -----------------------------------------------------------


def test_drain_refuses_work_and_reports_clean(closes):
    engine = Engine(use_cache=False)
    with background_server(engine) as server:
        client = closes(ServiceClient(server.url))
        client.run_many([SPEC])  # normal service before the drain

        loop = server._server.get_loop()
        clean = asyncio.run_coroutine_threadsafe(
            server.drain(5.0), loop).result(timeout=10)
        assert clean is True  # nothing was in flight
        assert server.draining

        with pytest.raises(ServiceError) as info:
            client.submit([SPEC])
        assert info.value.status == 503
        assert info.value.reply.code == "draining"
        assert info.value.retry_after is not None
        assert client.stats()["draining"] is True
        # reads stay up throughout the grace period
        assert client.health()["status"] == "ok"
        metrics = client.metrics()
        assert "repro_server_draining 1" in metrics


# --- cache degradation --------------------------------------------------------


class BrokenStore:
    """A segment store whose disk has gone away."""

    index: dict = {}

    def get(self, digest):
        raise OSError("injected: disk gone")

    def fetch_raw_many(self, digests):
        raise OSError("injected: disk gone")

    def append_many(self, items):
        raise OSError("injected: disk gone")


def test_cache_degrades_to_memo_only_on_store_errors(tmp_path):
    cache = ResultCache(tmp_path)
    cache._store = BrokenStore()
    stats = RunStats(name="x")
    cache.put(SPEC, stats)  # absorbed, not raised
    assert cache.get(SPEC) is None
    assert cache.get_many([SPEC]) == {}
    assert cache.put_many([(SPEC, stats)]) == 0
    counters = cache.degraded_counters()
    assert counters["writes"] == 2
    assert counters["reads"] == 2


def test_degraded_cache_does_not_fail_the_engine(tmp_path):
    engine = Engine(cache_dir=tmp_path)
    engine.cache._store = BrokenStore()
    results = engine.run_many([SPEC])  # must succeed memo-only
    assert SPEC in results
    assert engine.cache.degraded_counters()["writes"] >= 1
    # and the memo still serves repeats without touching the store
    again = engine.run_many([SPEC])
    assert again[SPEC].to_dict() == results[SPEC].to_dict()


# --- compaction quarantine ----------------------------------------------------


def _digest(i: int) -> str:
    return f"{i:064x}"


def test_compaction_quarantines_crc_failures(tmp_path, closes):
    # tiny segments: every record seals its own segment, so compaction
    # always has overhead to reclaim (and therefore actually runs)
    store = closes(SegmentStore(tmp_path, max_segment_bytes=1))
    store.append_many([(_digest(1), {"tag": "alpha"}),
                       (_digest(2), {"tag": "beta"})])

    # rot one payload byte on disk without touching the framing
    for segment in sorted(tmp_path.glob("*.seg")):
        data = segment.read_bytes()
        if b"alpha" in data:
            segment.write_bytes(data.replace(b"alpha", b"alphb", 1))
            break
    else:
        pytest.fail("no segment contained the payload")

    with pytest.raises(CorruptFrameError) as info:
        closes(SegmentStore(tmp_path, max_segment_bytes=1)).compact()
    err = info.value
    assert [digest for digest, _ in err.quarantined] == [_digest(1)]
    assert "recomputed" in str(err)
    sidecar = tmp_path / f"{_digest(1)}.corrupt"
    assert sidecar.exists()

    # the store is left compacted and consistent: the rotted record
    # is gone, the healthy one survived
    survivor = closes(SegmentStore(tmp_path))
    assert survivor.get(_digest(1)) is None
    assert survivor.get(_digest(2)) == {"tag": "beta"}
    assert survivor.compact() == (0, 0)  # nothing left to do


def test_cache_gc_cli_exits_nonzero_on_corruption(tmp_path, capsys,
                                                  closes):
    from repro.cli import main

    cache = closes(ResultCache(tmp_path))
    cache._store = SegmentStore(cache.dir, max_segment_bytes=1)
    stats = RunStats(name="x")
    other = RunSpec(BENCH, "mom3d", "ideal")
    cache.put(SPEC, stats)
    cache.put(other, stats)

    target = SPEC.digest().encode("ascii")
    for segment in sorted(cache.dir.glob("*.seg")):
        data = segment.read_bytes()
        marker = b'"benchmark"'
        if target in data and marker in data:
            segment.write_bytes(data.replace(marker, b'"benchmbrk"', 1))
            break
    else:
        pytest.fail("no segment contained the entry payload")

    code = main(["--cache-dir", str(tmp_path), "cache", "gc"])
    assert code == 1
    err = capsys.readouterr().err
    assert "quarantined" in err
    assert ".corrupt" in err or "recompute" in err


def test_cache_gc_cli_clean_store_exits_zero(tmp_path, capsys, closes):
    from repro.cli import main

    cache = closes(ResultCache(tmp_path))
    cache.put(SPEC, RunStats(name="x"))
    assert main(["--cache-dir", str(tmp_path), "cache", "gc"]) == 0
