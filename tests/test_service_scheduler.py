"""Scheduler tests: in-flight dedup, batch coalescing, job snapshots."""

import asyncio
import threading

import pytest

from repro.engine import Engine, RunSpec, Sweep
from repro.service.scheduler import BatchScheduler, Job, JobStore

BENCH = "gsm_encode"
IDEAL = RunSpec(BENCH, "mom", "ideal")  # cheapest simulation point


def _run(coro):
    return asyncio.run(coro)


def test_n_identical_submissions_one_simulation_pass():
    """The acceptance property: N concurrent identical submissions
    coalesce onto one in-flight future and one simulation."""
    engine = Engine(use_cache=False)

    async def main():
        async with BatchScheduler(engine, window=0.05) as scheduler:
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

    def gated_run_many(specs, jobs=None):
        calls.append(list(specs))
        results = real_run_many(specs, jobs=jobs)  # fills the memo
        entered.set()
        assert release.wait(timeout=10)
        return results

    engine.run_many = gated_run_many

    async def main():
        async with BatchScheduler(engine, window=0.0) as scheduler:
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
        async with BatchScheduler(engine, window=30.0) as scheduler:
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
        async with BatchScheduler(engine, window=0.02) as scheduler:
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


def test_distinct_specs_coalesce_into_one_batch():
    engine = Engine(use_cache=False)
    sweep = Sweep(benchmarks=(BENCH,), codings=("mom", "mom3d"),
                  memsystems=("vector", "ideal"))
    specs = sweep.specs()

    async def main():
        async with BatchScheduler(engine, window=0.05,
                                  max_batch=64) as scheduler:
            tasks = [asyncio.create_task(scheduler.run_specs([spec]))
                     for spec in specs]
            await asyncio.gather(*tasks)
            return scheduler

    scheduler = _run(main())
    assert scheduler.stats.batches == 1
    assert scheduler.stats.batched_specs == len(set(specs))
    assert engine.stats.simulations == len(set(specs))


def test_max_batch_splits_dispatches():
    engine = Engine(use_cache=False)
    specs = Sweep(benchmarks=(BENCH,), codings=("mom",),
                  memsystems=("ideal", "vector"),
                  l2_latencies=(20, 40)).specs()
    unique = list(dict.fromkeys(specs))

    async def main():
        async with BatchScheduler(engine, window=0.05,
                                  max_batch=2) as scheduler:
            await scheduler.run_specs(specs)
            return scheduler

    scheduler = _run(main())
    assert scheduler.stats.batches >= 2
    assert scheduler.stats.batched_specs == len(unique)
    assert engine.stats.simulations == len(unique)


def test_execution_errors_propagate_to_every_waiter():
    engine = Engine(use_cache=False)
    bad = RunSpec("no_such_benchmark", "mom")

    async def main():
        async with BatchScheduler(engine, window=0.0) as scheduler:
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
        async with BatchScheduler(engine, window=0.05) as scheduler:
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
        async with BatchScheduler(engine, window=0.0) as scheduler:
            with pytest.raises(Exception, match="no_such_benchmark"):
                await scheduler.submit([bad])[0]
            retry = scheduler.submit([bad])[0]
            with pytest.raises(Exception, match="no_such_benchmark"):
                await retry

    _run(main())


def test_close_fails_pending_futures():
    engine = Engine(use_cache=False)

    async def main():
        scheduler = BatchScheduler(engine, window=30.0)
        scheduler.start()
        future = scheduler.submit([IDEAL])[0]
        await scheduler.close()
        with pytest.raises(RuntimeError, match="scheduler closed"):
            future.result()
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.submit([IDEAL])

    _run(main())


# --- jobs ---------------------------------------------------------------------


def test_job_snapshot_lifecycle():
    engine = Engine(use_cache=False)

    async def main():
        async with BatchScheduler(engine, window=0.02) as scheduler:
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
        async with BatchScheduler(engine, window=0.0) as scheduler:
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
