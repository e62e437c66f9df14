"""Execution-backend tests: protocol, parity, leases, fault injection.

The headline property: the fig3, fig9 and table1 grids produce
byte-identical ``RunStats.to_dict()`` results whether the engine
executes inline (serially or over the local process pool) or on
remote workers pulling shards over HTTP — and a two-worker remote
run admits every shard's results exactly once, even when a worker dies
mid-lease.
"""

import threading
import time

import pytest

from repro.engine import (
    Engine,
    InlineBackend,
    RemoteBackend,
    RunSpec,
    Sweep,
    WorkQueue,
    make_backend,
)
from repro.engine.backends import BACKEND_NAMES, ExecutionBackend
from repro.engine.backends.workqueue import WorkQueueError
from repro.engine.parallel import execute_spec
from repro.errors import ConfigError
from repro.harness.experiments import paper_grids
from repro.service import ServiceClient, ServiceWorker, background_server
from repro.timing.stats import RunStats

BENCH = "gsm_encode"  # smallest trace; keeps single-point tests quick

SMALL = Sweep(benchmarks=(BENCH, "jpeg_encode"),
              codings=("mom", "mom3d"), memsystems=("ideal",)).specs()


def _work_then_close(worker: ServiceWorker) -> None:
    """Run ``worker`` on this thread, then close the connection its
    client keeps for this thread."""
    try:
        worker.run()
    finally:
        worker.client.close()


@pytest.fixture()
def remote_service():
    """A remote-backend service (four shards per dispatch) plus two
    live worker threads."""
    backend = RemoteBackend(lease_ttl=10.0, wait_timeout=120.0, shards=4)
    engine = Engine(use_cache=False, backend=backend)
    with background_server(engine) as server:
        workers = [ServiceWorker(server.url, Engine(use_cache=False),
                                 worker_id=f"w{i}", poll_interval=0.02)
                   for i in range(2)]
        threads = [threading.Thread(target=_work_then_close,
                                    args=(worker,), daemon=True)
                   for worker in workers]
        for thread in threads:
            thread.start()
        try:
            yield engine, server, workers
        finally:
            for worker in workers:
                worker.stop()
            for thread in threads:
                thread.join(timeout=30)


# --- protocol & factory -------------------------------------------------------


def test_make_backend_registry():
    assert BACKEND_NAMES == ("inline", "remote")
    for name in BACKEND_NAMES:
        backend = make_backend(name, jobs=2)
        assert backend.name == name
        assert isinstance(backend, ExecutionBackend)
        assert isinstance(backend.counters(), dict)
        backend.close()
    with pytest.raises(ValueError, match="unknown execution backend"):
        make_backend("gpu")
    with pytest.raises(ValueError, match="positive"):
        InlineBackend(jobs=0)
    with pytest.raises(ValueError, match="positive"):
        RemoteBackend(shards=0)
    with pytest.raises(ValueError, match="lease_ttl"):
        WorkQueue(lease_ttl=0)


def test_engine_accepts_backend_by_name_and_counts_dispatches():
    engine = Engine(use_cache=False, backend="inline")
    assert engine.backend.name == "inline"
    spec = RunSpec(BENCH, "mom", "ideal")
    first = engine.run(spec)
    assert engine.stats.dispatches == 1
    assert engine.run(spec) is first  # memo hit: no second dispatch
    assert engine.stats.dispatches == 1
    assert engine.backend.counters()["executed"] == 1


def test_remote_backend_rejects_trace_specs(tmp_path):
    from repro.engine import register_trace
    from repro.harness.traceio import export_workload

    path = tmp_path / "t.bin"
    export_workload(BENCH, "mom", path)
    benchmark = register_trace(path)
    backend = RemoteBackend(wait_timeout=1)
    with pytest.raises(ConfigError, match="remote workers"):
        backend.execute([RunSpec(benchmark, "mom", "ideal")])


# --- the acceptance criterion: cross-backend byte parity ----------------------


def test_paper_grids_byte_identical_across_backends(remote_service):
    """fig3 + fig9 + table1: serial == pool == remote, byte for
    byte, with the remote run sharded over two HTTP workers."""
    engine, _server, _workers = remote_service
    grid = paper_grids()

    inline = Engine(use_cache=False, backend=InlineBackend()
                    ).run_many(grid)
    pool = Engine(use_cache=False, backend=InlineBackend(jobs=2)
                  ).run_many(grid)
    remote = engine.run_many(grid)

    assert set(inline) == set(pool) == set(remote) == set(grid)
    for spec in grid:
        assert inline[spec].to_dict() == pool[spec].to_dict(), spec
        assert inline[spec].to_dict() == remote[spec].to_dict(), spec

    # every shard dispatched was simulated exactly once: no shard was
    # completed twice, and the engine admitted one result per spec
    counters = engine.backend.counters()
    assert counters["completions"] == counters["enqueued_shards"]
    assert counters["completed_specs"] == len(grid)
    assert counters["duplicate_completions"] == 0
    assert engine.stats.simulations == len(grid)


def test_inline_pool_honours_jobs():
    """At two jobs, specs from two traces run as two pool shards; at
    one job they run on the calling thread.  The results agree byte
    for byte."""
    specs = Sweep(benchmarks=(BENCH,), codings=("mom", "mom3d"),
                  memsystems=("ideal", "vector")).specs()
    serial, pool = InlineBackend(jobs=1), InlineBackend(jobs=2)
    serial_results = serial.execute(specs)
    pool_results = pool.execute(specs)
    assert serial.counters()["pool_shards"] == 0
    assert pool.counters()["pool_shards"] == 2
    assert set(pool_results) == set(serial_results) == set(specs)
    for spec in specs:
        assert pool_results[spec].to_dict() == \
            serial_results[spec].to_dict()


def test_remote_jobs_hint_controls_fan_out(remote_service):
    engine, _server, workers = remote_service
    assert engine.backend.shards == 4
    results = engine.run_many(SMALL)
    serial = Engine(use_cache=False, backend="inline").run_many(SMALL)
    for spec in SMALL:
        assert results[spec].to_dict() == serial[spec].to_dict()
    # the grid fanned out as 4 single-spec shards, all completed
    assert engine.backend.counters()["enqueued_shards"] == 4
    # a worker counts a completion once the server acknowledges it,
    # which can land after run_many has already returned
    deadline = time.monotonic() + 10.0
    while sum(worker.stats.completions for worker in workers) < 4 \
            and time.monotonic() < deadline:
        time.sleep(0.01)
    assert sum(worker.stats.completions for worker in workers) == 4


# --- work queue unit semantics ------------------------------------------------


def _stats(name: str) -> RunStats:
    return RunStats(name=name)


def test_workqueue_lease_expiry_releases_shard():
    now = [0.0]
    queue = WorkQueue(lease_ttl=10.0, clock=lambda: now[0])
    specs = (RunSpec(BENCH, "mom", "ideal"),
             RunSpec(BENCH, "mom3d", "ideal"))
    (shard_id,) = queue.enqueue([specs])

    first = queue.lease("w-dead")
    assert first is not None and first.shard.shard_id == shard_id
    assert queue.lease("w2") is None  # nothing else to hand out

    now[0] = 10.1  # past the TTL: the shard is offered again
    second = queue.lease("w-live")
    assert second is not None
    assert second.shard.shard_id == shard_id
    assert second.lease_id != first.lease_id
    assert queue.counters()["releases"] == 1

    # the dead worker finishing late is a stale (but valid) completion
    results = {spec: _stats(spec.label()) for spec in specs}
    fresh, dup = queue.complete(shard_id, first.lease_id, results)
    assert (fresh, dup) == (2, 0)
    assert queue.counters()["stale_completions"] == 1

    # the re-leased worker double-reporting changes nothing
    fresh, dup = queue.complete(shard_id, second.lease_id, results)
    assert (fresh, dup) == (0, 2)
    assert queue.counters()["duplicate_completions"] == 1

    collected = queue.collect([shard_id], timeout=1)
    assert set(collected) == set(specs)

    # ...and a completion after collection is still just a duplicate
    fresh, dup = queue.complete(shard_id, second.lease_id, results)
    assert (fresh, dup) == (0, 2)


def test_workqueue_two_sided_duplicate_race():
    """The TTL re-lease race run to *both* ends: the replacement
    worker completes first, then the presumed-dead original uploads
    too.  The late completion must be acknowledged idempotently (not
    errored, not double-admitted) and counted in the dedicated
    ``late_completions`` counter — the mirror image of the
    stale-completion ordering exercised above."""
    now = [0.0]
    queue = WorkQueue(lease_ttl=10.0, clock=lambda: now[0])
    specs = (RunSpec(BENCH, "mom", "ideal"),
             RunSpec(BENCH, "mom3d", "ideal"))
    (shard_id,) = queue.enqueue([specs])
    results = {spec: _stats(spec.label()) for spec in specs}

    original = queue.lease("w-slow")
    now[0] = 10.1  # TTL passes: the shard is re-leased
    replacement = queue.lease("w-live")
    assert replacement.lease_id != original.lease_id

    # the replacement finishes first: the normal winning completion
    fresh, dup = queue.complete(shard_id, replacement.lease_id, results)
    assert (fresh, dup) == (2, 0)

    # the original worker was only slow, not dead: its upload lands
    # after the winner — acknowledged as a duplicate, counted as late
    fresh, dup = queue.complete(shard_id, original.lease_id, results)
    assert (fresh, dup) == (0, 2)
    counters = queue.counters()
    assert counters["completions"] == 1
    assert counters["duplicate_completions"] == 1
    assert counters["late_completions"] == 1
    assert counters["stale_completions"] == 0

    # results still collect exactly once
    collected = queue.collect([shard_id], timeout=1)
    assert set(collected) == set(specs)

    # a lease id the queue never issued is a protocol error, live or
    # retired — never silently absorbed into the duplicate path
    with pytest.raises(WorkQueueError, match="never issued"):
        queue.complete(shard_id, "forged-lease", results)


def test_workqueue_completion_validation():
    queue = WorkQueue(lease_ttl=10.0)
    spec = RunSpec(BENCH, "mom", "ideal")
    other = RunSpec(BENCH, "mom3d", "ideal")
    (shard_id,) = queue.enqueue([(spec,)])
    queue.lease("w1")
    with pytest.raises(WorkQueueError, match="unknown shard"):
        queue.complete("no-such-shard", "x", {spec: _stats("s")})
    with pytest.raises(WorkQueueError, match="cover its"):
        queue.complete(shard_id, "x", {other: _stats("s")})
    with pytest.raises(WorkQueueError, match="cover its"):
        queue.complete(shard_id, "x", {})


def test_workqueue_collect_timeout_then_discard():
    queue = WorkQueue(lease_ttl=10.0)
    spec = RunSpec(BENCH, "mom", "ideal")
    (shard_id,) = queue.enqueue([(spec,)])
    lease = queue.lease("w1")
    with pytest.raises(TimeoutError, match="worker attached"):
        queue.collect([shard_id], timeout=0.05)
    queue.discard([shard_id])
    # a worker uploading after the producer gave up: duplicate ack
    fresh, dup = queue.complete(shard_id, lease.lease_id,
                                {spec: _stats("s")})
    assert (fresh, dup) == (0, 1)
    assert queue.counters()["discarded"] == 1


def test_workqueue_skips_empty_shards():
    queue = WorkQueue()
    assert queue.enqueue([(), ()]) == []
    assert queue.lease("w1") is None


def test_remote_execute_times_out_without_workers():
    backend = RemoteBackend(wait_timeout=0.1)
    with pytest.raises(TimeoutError):
        backend.execute([RunSpec(BENCH, "mom", "ideal")])
    # the timed-out shard was discarded, not leaked
    counters = backend.counters()
    assert counters["pending_shards"] == 0
    assert counters["discarded"] == 1


def test_worker_idle_budget_restarts_after_long_shard():
    """Time spent simulating a shard is not idle time: a worker whose
    shard outlasts --max-idle must keep polling afterwards instead of
    exiting the moment the queue goes quiet."""
    from repro.service import WorkLeaseGrant

    worker = ServiceWorker("http://127.0.0.1:1",
                           Engine(use_cache=False),
                           max_idle=0.3, poll_interval=0.05)
    spec = RunSpec(BENCH, "mom", "ideal")
    grants = [WorkLeaseGrant(lease_id="l1", shard_id="s1", ttl=30.0,
                             specs=(spec,))]

    class StubClient:
        def lease_work(self, _worker_id, report=None):
            return grants.pop(0) if grants else None

        def complete_work(self, _worker_id, grant, results, **kwargs):
            return {"accepted": True, "fresh": len(results),
                    "duplicate": 0}

    worker.client = StubClient()
    real_run_many = worker.engine.run_many

    def slow_run_many(specs):
        time.sleep(0.5)  # a shard longer than the whole idle budget
        return real_run_many(specs)

    worker.engine.run_many = slow_run_many
    stats = worker.run()
    assert stats.completions == 1
    # the idle clock restarted after the upload: several empty polls
    # fit into the 0.3s budget (the regression exited after one)
    assert stats.idle_polls >= 3


# --- fault injection: a worker dies mid-lease ---------------------------------


def test_worker_death_releases_shard_without_double_admission(tmp_path):
    """End-to-end over HTTP: worker A leases a shard and dies; after
    the TTL the shard is re-leased to worker B, whose results are
    admitted into the shared cache exactly once; A's eventual late
    upload is acknowledged as a duplicate and changes nothing."""
    backend = RemoteBackend(lease_ttl=0.4, wait_timeout=60.0, shards=2)
    engine = Engine(cache_dir=tmp_path, backend=backend)
    specs = SMALL
    with background_server(engine) as server:
        dead = ServiceClient(server.url)
        results_holder: dict = {}

        def coordinate():
            results_holder["results"] = engine.run_many(specs)

        coordinator = threading.Thread(target=coordinate)
        coordinator.start()

        # worker A takes one shard and never completes it
        deadline = time.monotonic() + 10
        grant = None
        while grant is None and time.monotonic() < deadline:
            grant = dead.lease_work("w-dead")
            if grant is None:
                time.sleep(0.02)
        assert grant is not None

        time.sleep(0.5)  # let A's lease expire

        live = ServiceWorker(server.url, Engine(use_cache=False),
                             worker_id="w-live", poll_interval=0.02)
        live_thread = threading.Thread(target=_work_then_close,
                                       args=(live,), daemon=True)
        live_thread.start()
        coordinator.join(timeout=60)
        assert not coordinator.is_alive()

        # worker A rises from the dead and uploads its stale shard
        ghost_results = {spec: execute_spec(spec)
                         for spec in grant.specs}
        reply = dead.complete_work("w-dead", grant, ghost_results)
        dead.close()
        assert reply["accepted"] is True
        assert reply["fresh"] == 0
        assert reply["duplicate"] == len(grant.specs)

        live.stop()
        live_thread.join(timeout=30)

    results = results_holder["results"]
    serial = Engine(use_cache=False, backend="inline").run_many(specs)
    for spec in specs:
        assert results[spec].to_dict() == serial[spec].to_dict()

    # exactly-once admission: one store per unique spec, the re-leased
    # shard completed once, and the ghost upload counted as duplicate
    assert engine.stats.simulations == len(specs)
    assert engine.stats.stores == len(specs)
    assert len(engine.cache) == len(specs)
    counters = backend.counters()
    assert counters["releases"] >= 1
    assert counters["duplicate_completions"] >= 1
    assert counters["completed_specs"] == len(specs)
    engine.close()
