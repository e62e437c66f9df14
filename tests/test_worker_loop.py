"""Worker-loop hardening: idle budget, backoff, and crash survival.

Three regressions pinned here, all deterministic via the injectable
clock/rng and the ``_wait`` hook:

* the idle budget pre-charged the *upcoming* pause, so ``--max-idle``
  workers gave up one poll interval early;
* transient transport errors retried on a fixed pause instead of
  backing off (a dead server got hammered at full poll rate forever);
* an engine exception inside a leased shard escaped ``run`` and
  killed the whole worker loop.

The end-to-end half injects a worker whose engine always raises into
a live two-worker fleet and asserts the fleet still resolves the grid
exactly once while the broken worker keeps polling.
"""

import threading
import time
from contextlib import closing

import pytest

from repro.engine import Engine, RemoteBackend, RunSpec, Sweep
from repro.service import (
    ServiceClient,
    ServiceWorker,
    WorkLeaseGrant,
    background_server,
)

BENCH = "gsm_encode"

SPECS = Sweep(benchmarks=(BENCH,), codings=("mom", "mom3d", "mmx"),
              memsystems=("ideal",)).specs()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class IdleClient:
    """A lease endpoint that never has work."""

    def lease_work(self, _worker_id, report=None):
        return None


class PlannedClient:
    """Replays a scripted lease sequence; 'err' raises OSError."""

    def __init__(self, plan):
        self.plan = list(plan)

    def lease_work(self, _worker_id, report=None):
        if not self.plan:
            raise StopIteration("plan exhausted")
        step = self.plan.pop(0)
        if step == "err":
            raise OSError("connection refused")
        return step

    def complete_work(self, _worker_id, grant, results, **kwargs):
        return {"accepted": True, "fresh": len(results), "duplicate": 0}


def _fake_time_worker(client, **kwargs) -> tuple[ServiceWorker, FakeClock]:
    """A worker on a virtual clock whose waits advance it instantly."""
    clock = FakeClock()
    worker = ServiceWorker("http://127.0.0.1:1", Engine(use_cache=False),
                           clock=clock, **kwargs)
    worker.client = client

    def wait(pause: float) -> bool:
        clock.now += pause
        return False

    worker._wait = wait
    return worker, clock


# --- idle-budget accounting ---------------------------------------------------


def test_idle_budget_spends_the_full_budget():
    """--max-idle 1 with a 0.3s poll interval must wait the whole
    second (5 polls: 0.0, 0.3, 0.6, 0.9, 1.0), not give up after the
    fourth because the *upcoming* pause was pre-charged."""
    worker, clock = _fake_time_worker(IdleClient(), poll_interval=0.3,
                                      max_idle=1.0)
    stats = worker.run()
    assert clock.now == pytest.approx(1.0)  # final pause clamped to 0.1
    assert stats.idle_polls == 5
    assert stats.leases == 0


def test_unbounded_worker_has_no_idle_exit():
    worker, clock = _fake_time_worker(IdleClient(), poll_interval=0.5)
    polls = []

    def wait(pause: float) -> bool:
        clock.now += pause
        polls.append(pause)
        return len(polls) >= 20  # simulate stop() after 20 polls

    worker._wait = wait
    stats = worker.run()
    assert stats.idle_polls == 20
    assert polls == [0.5] * 20


# --- transient-error backoff --------------------------------------------------


class FixedRng:
    """random() pinned to 1.0: jitter factor exactly 1."""

    def random(self) -> float:
        return 1.0


def test_backoff_doubles_and_resets_after_success():
    client = PlannedClient(["err", "err", "err", None, "err"])
    worker, _clock = _fake_time_worker(
        client, poll_interval=0.2, retry_backoff=1.0,
        retry_backoff_max=30.0, rng=FixedRng())
    waits = []

    def wait(pause: float) -> bool:
        waits.append(pause)
        return not client.plan  # stop once the plan is spent

    worker._wait = wait
    stats = worker.run()
    # 1 -> 2 -> 4 while the server is down, one plain idle poll after
    # it answers (backoff reset), then the ladder restarts at 1
    assert waits == pytest.approx([1.0, 2.0, 4.0, 0.2, 1.0])
    assert stats.errors == 4
    assert stats.idle_polls == 1


def test_backoff_caps_at_retry_backoff_max():
    worker, _clock = _fake_time_worker(
        IdleClient(), retry_backoff=1.0, retry_backoff_max=8.0,
        rng=FixedRng())
    ladder = [worker._next_backoff() for _ in range(5)]
    assert ladder == [1.0, 2.0, 4.0, 8.0, 8.0]
    worker._backoff = 0.0  # what a successful round-trip does
    assert worker._next_backoff() == 1.0


def test_backoff_jitter_stays_within_half_to_full():
    worker = ServiceWorker("http://127.0.0.1:1", Engine(use_cache=False),
                           retry_backoff=2.0, retry_backoff_max=2.0)
    for _ in range(50):
        worker._backoff = 0.0
        assert 1.0 <= worker._next_backoff() <= 2.0


def test_backoff_parameters_validated():
    with pytest.raises(ValueError, match="positive"):
        ServiceWorker("http://127.0.0.1:1", Engine(use_cache=False),
                      retry_backoff=0)
    with pytest.raises(ValueError, match="retry_backoff_max"):
        ServiceWorker("http://127.0.0.1:1", Engine(use_cache=False),
                      retry_backoff=5.0, retry_backoff_max=1.0)


# --- engine crash guard -------------------------------------------------------


def test_engine_exception_is_scoped_to_the_shard(capsys):
    """A raising engine costs one shard, not the worker: the loop
    counts the failure, keeps polling, and exits through the idle
    budget as usual."""
    spec = RunSpec(BENCH, "mom", "ideal")
    grants = [WorkLeaseGrant(lease_id="l1", shard_id="s1", ttl=30.0,
                             specs=(spec,)), None, None, None, None]
    client = PlannedClient(grants)
    worker, clock = _fake_time_worker(client, poll_interval=0.1,
                                      max_idle=0.25,
                                      worker_id="w-crash")

    def boom(_specs):
        raise RuntimeError("simulated engine fault")

    worker.engine.run_many = boom
    stats = worker.run()
    assert stats.leases == 1
    assert stats.failed_shards == 1
    assert stats.errors == 1
    assert stats.completions == 0
    assert stats.idle_polls >= 2  # the loop survived and kept polling
    captured = capsys.readouterr()
    assert "shard s1 failed locally" in captured.err
    assert "w-crash" in captured.err


def test_worker_reports_counters_on_lease_and_complete():
    """Every poll and completion carries the cumulative stats dict
    (the server folds it into the fleet gauges)."""
    spec = RunSpec(BENCH, "mom", "ideal")
    grant = WorkLeaseGrant(lease_id="l1", shard_id="s1", ttl=30.0,
                           specs=(spec,))
    seen = []

    class RecordingClient:
        def lease_work(self, _worker_id, report=None):
            seen.append(("lease", report))
            return grant if len(seen) == 1 else None

        def complete_work(self, _worker_id, _grant, results, *,
                          elapsed=None, report=None):
            seen.append(("complete", report))
            assert elapsed is not None and elapsed >= 0
            return {"accepted": True, "fresh": len(results),
                    "duplicate": 0}

    worker, _clock = _fake_time_worker(RecordingClient(),
                                       poll_interval=0.1, max_idle=0.1)
    worker.engine = Engine(use_cache=False, backend="inline")
    stats = worker.run()
    assert stats.completions == 1
    kinds = [kind for kind, _report in seen]
    assert kinds.count("complete") == 1
    for _kind, report in seen:
        assert isinstance(report, dict)
        assert "failed_shards" in report
    # the completion report already counts the lease it rode in on
    complete_report = next(report for kind, report in seen
                           if kind == "complete")
    assert complete_report["leases"] == 1
    assert "failed-shards=0" in stats.summary()


# --- end-to-end fault injection -----------------------------------------------


def test_fleet_survives_a_worker_with_a_broken_engine(tmp_path):
    """Worker A's engine raises on every shard; worker B is healthy.
    The grid still resolves with exactly one admission per shard, A
    keeps polling the whole time, and the failures surface in the
    server's fleet gauges."""
    backend = RemoteBackend(lease_ttl=0.4, wait_timeout=60.0)
    expected = Engine(use_cache=False,
                      backend="inline").run_many(SPECS)
    with closing(Engine(use_cache=False, backend=backend)) as engine, \
            closing(Engine(use_cache=False)) as bad_engine, \
            closing(Engine(use_cache=False)) as good_engine, \
            background_server(engine) as server:
        bad = ServiceWorker(server.url, bad_engine, worker_id="w-bad",
                            poll_interval=0.02)
        bad.engine.run_many = _always_raise
        bad_thread = threading.Thread(target=_work_then_close, args=(bad,),
                                      daemon=True)
        bad_thread.start()

        results_holder: dict = {}

        def coordinate():
            results_holder["results"] = engine.run_many(SPECS)

        coordinator = threading.Thread(target=coordinate)
        coordinator.start()

        # let the broken worker burn at least one lease first
        deadline = time.monotonic() + 10
        while bad.stats.failed_shards < 1 and \
                time.monotonic() < deadline:
            time.sleep(0.02)
        assert bad.stats.failed_shards >= 1

        good = ServiceWorker(server.url, good_engine, worker_id="w-good",
                             poll_interval=0.02)
        good_thread = threading.Thread(target=_work_then_close,
                                       args=(good,), daemon=True)
        good_thread.start()
        try:
            coordinator.join(timeout=60)
            assert not coordinator.is_alive()
            # the broken worker is still polling, not dead
            assert bad_thread.is_alive()
            counters = backend.counters()
            assert counters["completions"] == \
                counters["enqueued_shards"]
            assert counters["releases"] >= 1  # expired bad leases
            with closing(ServiceClient(server.url)) as client:
                scrape = client.metrics()
            lines = dict(line.rsplit(" ", 1)
                         for line in scrape.splitlines()
                         if line and not line.startswith("#"))
            assert float(lines["repro_fleet_failed_shards"]) >= 1
            assert float(lines["repro_fleet_workers"]) >= 2
        finally:
            bad.stop()
            good.stop()
            bad_thread.join(timeout=30)
            good_thread.join(timeout=30)
    results = results_holder["results"]
    assert {spec: stats.to_dict()
            for spec, stats in results.items()} == \
        {spec: stats.to_dict() for spec, stats in expected.items()}
    assert good.stats.completions >= 1


def _work_then_close(worker: ServiceWorker) -> None:
    """Run ``worker`` on this thread, then close the connection its
    client keeps for this thread."""
    try:
        worker.run()
    finally:
        worker.client.close()


def _always_raise(_specs):
    raise RuntimeError("injected engine fault")
