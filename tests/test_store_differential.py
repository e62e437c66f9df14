"""Store differential: a warm segment-store cache answers exactly what
the cold run computed.

The acceptance criterion for the segmented store: the fig3 + fig9 +
table1 grids produce byte-identical ``RunStats.to_dict()`` results
whether they are simulated or read back from the store, and a fresh
engine over the filled cache answers the whole grid with
``simulations=0`` — whether the cold run simulated serially, over the
inline backend's process pool or on remote workers.  The reference is
the cold serial run.
"""

import dataclasses
import threading
from contextlib import closing

from repro.engine import Engine, InlineBackend, RemoteBackend
from repro.harness.experiments import paper_grids
from repro.service import ServiceWorker, background_server

GRID = paper_grids()


def _stats_dicts(results) -> dict:
    return {spec: stats.to_dict() for spec, stats in results.items()}


def _counters(engine) -> dict:
    return dataclasses.asdict(engine.stats)


def _run(cache_dir, backend=None):
    with closing(Engine(cache_dir=cache_dir, backend=backend)) as engine:
        results = engine.run_many(GRID)
    return _stats_dicts(results), _counters(engine)


def _work_then_close(worker: ServiceWorker) -> None:
    """Run ``worker`` on this thread, then close its engine and the
    connection its client keeps for this thread."""
    try:
        worker.run()
    finally:
        worker.client.close()
        worker.engine.close()


def _assert_warm(cache_dir, reference) -> None:
    """A fresh engine over ``cache_dir`` replays ``reference``."""
    warm, warm_stats = _run(cache_dir)
    assert warm == reference
    assert warm_stats["simulations"] == 0
    assert warm_stats["disk_hits"] == len(GRID)


def test_paper_grids_cold_and_warm(tmp_path):
    cold, cold_stats = _run(tmp_path, backend=InlineBackend())
    assert cold_stats["simulations"] == len(GRID)
    assert cold_stats["stores"] == len(GRID)
    _assert_warm(tmp_path, cold)


def test_paper_grids_parity_across_backends(tmp_path):
    reference, _ = _run(tmp_path / "ref", backend=InlineBackend(jobs=1))

    pool, pool_stats = _run(tmp_path / "pool",
                            backend=InlineBackend(jobs=2))
    assert pool == reference
    assert pool_stats["simulations"] == len(GRID)
    _assert_warm(tmp_path / "pool", reference)

    backend = RemoteBackend(lease_ttl=10.0, wait_timeout=120.0)
    with closing(Engine(cache_dir=tmp_path / "remote",
                        backend=backend)) as engine, \
            background_server(engine) as server:
        workers = [ServiceWorker(server.url, Engine(use_cache=False),
                                 worker_id=f"w{i}", poll_interval=0.02)
                   for i in range(2)]
        threads = [threading.Thread(target=_work_then_close,
                                    args=(worker,), daemon=True)
                   for worker in workers]
        for thread in threads:
            thread.start()
        try:
            remote = engine.run_many(GRID)
        finally:
            for worker in workers:
                worker.stop()
            for thread in threads:
                thread.join(timeout=30)
    assert _stats_dicts(remote) == reference
    # the remote run's admissions persisted: a warm engine over the
    # same cache replays the grid without simulating
    _assert_warm(tmp_path / "remote", reference)
