"""Scheduler tests: in-flight dedup, one dispatch per submission, job
snapshots."""

import asyncio
import gc
import logging
import threading
import time
import uuid
from contextlib import closing

import pytest

from repro.engine import Engine, RemoteBackend, RunSpec, Sweep
from repro.service import ServiceClient, ServiceError, background_server
from repro.service.scheduler import BatchScheduler, Job, JobStore
from repro.timing.stats import RunStats
from repro.workloads import benchmark_names

BENCH = "gsm_encode"
IDEAL = RunSpec(BENCH, "mom", "ideal")  # cheapest simulation point


def _run(coro):
    return asyncio.run(coro)


def test_n_identical_submissions_one_simulation_pass():
    """The acceptance property: N concurrent identical submissions
    coalesce onto one in-flight future and one simulation."""
    engine = Engine(use_cache=False)

    async def main():
        async with BatchScheduler(engine) as scheduler:
            futures = []
            for _ in range(8):
                futures.extend(scheduler.submit([IDEAL]))
            results = await asyncio.gather(*futures)
            return scheduler, results

    scheduler, results = _run(main())
    assert engine.stats.simulations == 1
    assert scheduler.stats.submitted == 8
    assert scheduler.stats.coalesced == 7
    assert scheduler.stats.batches == 1
    assert scheduler.stats.batched_specs == 1
    # every waiter sees the same memoized object
    assert all(r is results[0] for r in results)


def test_submissions_during_flight_attach_to_running_future():
    """A spec submitted while its simulation is running must not start
    a second one — the new waiter attaches to the in-flight future,
    even once the engine has memoized the result but the batch has not
    yet handed it back (the memo is read only for specs not in flight).
    """
    engine = Engine(use_cache=False)
    entered = threading.Event()
    release = threading.Event()
    calls = []
    real_run_many = engine.run_many

    def gated_run_many(specs):
        calls.append(list(specs))
        results = real_run_many(specs)  # fills the memo
        entered.set()
        assert release.wait(timeout=10)
        return results

    engine.run_many = gated_run_many

    async def main():
        async with BatchScheduler(engine) as scheduler:
            first = scheduler.submit([IDEAL])[0]
            # wait until the batch has simulated but not yet returned
            while not entered.is_set():
                await asyncio.sleep(0.005)
            second = scheduler.submit([IDEAL])[0]
            assert second is first  # same in-flight future
            assert not second.done()
            release.set()
            await asyncio.gather(first, second)
            return scheduler

    scheduler = _run(main())
    assert len(calls) == 1
    assert engine.stats.simulations == 1
    assert engine.stats.memo_hits == 0
    assert scheduler.stats.coalesced == 1


def test_memo_hit_resolves_at_submit():
    """A spec the engine has memoized is answered inside ``submit``:
    the future is done before any await and never reaches a batch."""
    engine = Engine(use_cache=False)
    memoized = engine.run(IDEAL)

    async def main():
        async with BatchScheduler(engine) as scheduler:
            hits = engine.stats.memo_hits
            future = scheduler.submit([IDEAL])[0]
            assert future.done()
            assert future.result() is memoized
            assert engine.stats.memo_hits == hits + 1
            return scheduler

    scheduler = _run(main())
    assert scheduler.stats.submitted == 1
    assert scheduler.stats.coalesced == 0
    assert scheduler.stats.batches == 0
    assert scheduler.stats.batched_specs == 0
    assert engine.stats.simulations == 1


def test_memo_hit_and_miss_in_one_submission():
    """The hit resolves at once; the miss still takes one batch."""
    engine = Engine(use_cache=False)
    memoized = engine.run(IDEAL)
    miss = RunSpec(BENCH, "mom3d", "ideal")

    async def main():
        async with BatchScheduler(engine) as scheduler:
            hit_future, miss_future = scheduler.submit([IDEAL, miss])
            assert hit_future.done() and hit_future.result() is memoized
            assert not miss_future.done()
            stats = await miss_future
            return scheduler, stats

    scheduler, stats = _run(main())
    assert stats is engine.run(miss)
    assert scheduler.stats.batches == 1
    assert scheduler.stats.batched_specs == 1
    assert engine.stats.simulations == 2


def test_submission_dispatches_without_waiting():
    """A submission's misses leave as soon as the event loop turns:
    no window holds them back for company."""
    engine = Engine(use_cache=False)

    async def main():
        async with BatchScheduler(engine) as scheduler:
            future = scheduler.submit([IDEAL])[0]
            await asyncio.sleep(0)
            batches = scheduler.stats.batches
            await future
            return batches

    assert _run(main()) == 1


def test_execution_errors_propagate_to_every_waiter():
    engine = Engine(use_cache=False)
    bad = RunSpec("no_such_benchmark", "mom")

    async def main():
        async with BatchScheduler(engine) as scheduler:
            futures = scheduler.submit([bad, bad])
            outcomes = await asyncio.gather(*futures,
                                            return_exceptions=True)
            return outcomes

    outcomes = _run(main())
    assert len(outcomes) == 2
    assert all(isinstance(o, Exception) for o in outcomes)
    assert "no_such_benchmark" in str(outcomes[0])


def test_failing_spec_does_not_poison_batchmates():
    """A bad spec coalesced into a batch with good ones must fail
    alone; the good specs' futures still resolve with results."""
    engine = Engine(use_cache=False)
    bad = RunSpec("no_such_benchmark", "mom")

    async def main():
        async with BatchScheduler(engine) as scheduler:
            futures = scheduler.submit([IDEAL, bad])
            outcomes = await asyncio.gather(*futures,
                                            return_exceptions=True)
            return outcomes

    good, failed = _run(main())
    assert good.cycles > 0  # the valid spec produced real stats
    assert isinstance(failed, Exception)
    assert "no_such_benchmark" in str(failed)
    assert engine.stats.simulations == 1


def test_failed_spec_can_be_resubmitted():
    """A failure clears the in-flight slot; a later submission retries
    instead of being welded to the old failed future."""
    engine = Engine(use_cache=False)
    bad = RunSpec("no_such_benchmark", "mom")

    async def main():
        async with BatchScheduler(engine) as scheduler:
            with pytest.raises(Exception, match="no_such_benchmark"):
                await scheduler.submit([bad])[0]
            retry = scheduler.submit([bad])[0]
            with pytest.raises(Exception, match="no_such_benchmark"):
                await retry

    _run(main())


def test_close_lets_running_batch_land_then_refuses():
    """Every in-flight future belongs to a running batch: close waits
    for it to resolve, then refuses further submissions."""
    engine = Engine(use_cache=False)

    async def main():
        scheduler = BatchScheduler(engine)
        future = scheduler.submit([IDEAL])[0]
        await scheduler.close()
        assert future.result().cycles > 0
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.submit([IDEAL])

    _run(main())


class PickyBackend:
    """Fails every batch that holds ``doomed``; answers the other
    specs with stub stats."""

    name = "picky"

    def __init__(self, doomed: RunSpec):
        self.doomed = doomed
        self.batches: list[list[RunSpec]] = []

    def execute(self, specs):
        self.batches.append(list(specs))
        if self.doomed in specs:
            raise RuntimeError(f"cannot simulate {self.doomed.label()}")
        return {spec: RunStats(name=spec.label()) for spec in specs}

    def counters(self) -> dict:
        return {}

    def close(self) -> None:
        pass


def test_large_submission_is_one_batch():
    """However many specs a job carries, the engine gets them in one
    ``run_many``, so its grid planner sees whole trace groups."""
    specs = Sweep(benchmarks=benchmark_names(),
                  codings=("mmx", "mom", "mom3d"),
                  memsystems=("vector", "multibank"),
                  l2_latencies=(20, 40, 60, 80)).specs()
    assert len(specs) > 64
    backend = PickyBackend(RunSpec("no_such_benchmark", "mom"))
    engine = Engine(use_cache=False, backend=backend)

    async def main():
        async with BatchScheduler(engine) as scheduler:
            await asyncio.gather(*scheduler.submit(specs))
            return scheduler

    scheduler = _run(main())
    assert scheduler.stats.batches == 1
    assert backend.batches == [specs]


def test_failed_batch_reruns_its_specs_alone():
    """A batch the backend fails for one spec's sake is re-run spec by
    spec: that spec fails alone and its batchmate resolves."""
    doomed = RunSpec(BENCH, "mom", "vector")
    backend = PickyBackend(doomed)
    engine = Engine(use_cache=False, backend=backend)

    async def main():
        async with BatchScheduler(engine) as scheduler:
            return await asyncio.gather(*scheduler.submit([IDEAL, doomed]),
                                        return_exceptions=True)

    good, failed = _run(main())
    assert good.name == IDEAL.label()
    assert isinstance(failed, RuntimeError)
    assert "cannot simulate" in str(failed)
    assert backend.batches == [[IDEAL, doomed], [IDEAL], [doomed]]


def test_remote_timeout_fails_the_whole_job_at_once():
    """With no worker attached the remote backend times the batch out.
    The job fails then, instead of re-running each spec alone and
    waiting out the timeout once more per spec."""
    backend = RemoteBackend(wait_timeout=0.5)
    specs = Sweep(benchmarks=(BENCH,), codings=("mom", "mom3d"),
                  memsystems=("ideal", "vector", "multibank")).specs()
    assert len(specs) == 6
    with closing(Engine(use_cache=False, backend=backend)) as engine, \
            background_server(engine) as server, \
            closing(ServiceClient(server.url,
                                  poll_interval=0.02)) as client:
        start = time.monotonic()
        job = client.submit(specs)
        with pytest.raises(ServiceError, match="worker attached"):
            client.wait(job.job_id, timeout=30)
        elapsed = time.monotonic() - start
    assert elapsed < 2 * backend.wait_timeout
    assert backend.counters()["pending_shards"] == 0


def test_failed_job_nobody_polls_logs_nothing(caplog):
    """A job that fails after its client stopped polling leaves
    exceptions no waiter retrieves; asyncio must not log them as lost
    when the futures are collected."""
    backend = PickyBackend(IDEAL)
    engine = Engine(use_cache=False, backend=backend)
    specs = [IDEAL, RunSpec(BENCH, "mom3d", "ideal")]

    async def main():
        async with BatchScheduler(engine) as scheduler:
            job = Job(specs, scheduler.submit(specs))
            await asyncio.wait(job.futures)  # retrieves nothing
            return job.futures[0].done() and job.futures[1].done()

    with caplog.at_level(logging.ERROR, logger="asyncio"):
        assert _run(main())
        gc.collect()
    assert [r.getMessage() for r in caplog.records
            if r.name == "asyncio"] == []
    assert backend.batches == [specs, [IDEAL], [specs[1]]]


# --- jobs ---------------------------------------------------------------------


def test_job_snapshot_lifecycle():
    engine = Engine(use_cache=False)

    async def main():
        async with BatchScheduler(engine) as scheduler:
            job = Job([IDEAL], scheduler.submit([IDEAL]))
            first = job.snapshot()
            await asyncio.gather(*job.futures)
            done = job.snapshot()
            return first, done

    first, done = _run(main())
    assert first.status in ("running", "done")
    assert done.status == "done"
    assert done.results is not None
    spec, stats = done.results[0]
    assert spec == IDEAL and stats.cycles > 0


def test_job_snapshot_failure():
    engine = Engine(use_cache=False)
    bad = RunSpec("no_such_benchmark", "mom")

    async def main():
        async with BatchScheduler(engine) as scheduler:
            job = Job([bad], scheduler.submit([bad]))
            await asyncio.gather(*job.futures, return_exceptions=True)
            return job.snapshot()

    snapshot = _run(main())
    assert snapshot.status == "failed"
    assert "no_such_benchmark" in (snapshot.error or "")
    assert snapshot.results is None


def test_job_store_evicts_only_finished_jobs():
    loop = asyncio.new_event_loop()
    try:
        store = JobStore(limit=2)
        done_future = loop.create_future()
        done_future.set_result(None)
        pending = loop.create_future()
        finished = [Job([], [done_future]) for _ in range(2)]
        running = Job([], [pending])
        for job in finished:
            store.add(job)
        store.add(running)
        assert len(store) == 2
        assert store.get(running.job_id) is running
        assert store.get(finished[0].job_id) is None
    finally:
        loop.close()


def test_job_store_eviction_prefers_served_jobs():
    """A finished-but-never-polled job survives a burst while an
    already-served one is evicted first."""
    loop = asyncio.new_event_loop()
    try:
        store = JobStore(limit=2)
        done = loop.create_future()
        done.set_result(None)
        served = Job([], [done])
        served.served = True
        unserved = Job([], [done])
        store.add(served)
        store.add(unserved)
        store.add(Job([], [done]))  # pushes past the limit
        assert store.get(served.job_id) is None
        assert store.get(unserved.job_id) is unserved
    finally:
        loop.close()


def test_job_store_refuses_past_running_limit():
    from repro.service.scheduler import JobStoreFull

    loop = asyncio.new_event_loop()
    try:
        store = JobStore(limit=1)
        store.add(Job([], [loop.create_future()]))  # still running
        with pytest.raises(JobStoreFull, match="already running"):
            store.add(Job([], [loop.create_future()]))
        assert store.running() == 1
    finally:
        loop.close()


class CountingJob:
    """A stored-job stub that counts how often ``done`` is read."""

    def __init__(self, done: bool):
        self.job_id = uuid.uuid4().hex
        self.finished = done
        self.served = True
        self.reads = 0

    @property
    def done(self) -> bool:
        self.reads += 1
        return self.finished


def test_job_store_counts_running_jobs_without_touching_finished_ones():
    store = JobStore(limit=256)
    finished = [CountingJob(done=True) for _ in range(256)]
    for job in finished:
        store.add(job)
    for job in finished:
        job.reads = 0
    assert store.running() == 0
    store.ensure_capacity()
    assert sum(job.reads for job in finished) == 0
    running = CountingJob(done=False)
    store.add(running)  # evicts the oldest finished job
    assert store.get(finished[0].job_id) is None
    for job in finished:
        job.reads = 0
    assert store.running() == 1
    assert sum(job.reads for job in finished) == 0
    running.finished = True
    assert store.running() == 0
    assert len(store) == 256
