"""Store differential: a warm segment-store cache answers exactly what
the cold run computed.

The acceptance criterion for the segmented store: the fig3 + fig9 +
table1 grids produce byte-identical ``RunStats.to_dict()`` results
whether they are simulated or read back from the store, and a fresh
engine over the filled cache answers the whole grid with
``simulations=0`` — with the inline, process and remote execution
backends alike.  The reference is the cold inline run.
"""

import dataclasses
import threading

from repro.engine import Engine, InlineBackend, ProcessBackend, RemoteBackend
from repro.harness.experiments import paper_grids
from repro.service import ServiceWorker, background_server

GRID = paper_grids()


def _stats_dicts(results) -> dict:
    return {spec: stats.to_dict() for spec, stats in results.items()}


def _counters(engine) -> dict:
    return dataclasses.asdict(engine.stats)


def _run(cache_dir, backend=None, jobs=1):
    engine = Engine(jobs=jobs, cache_dir=cache_dir, backend=backend)
    results = engine.run_many(GRID)
    return _stats_dicts(results), _counters(engine)


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
    reference, _ = _run(tmp_path / "ref", backend=InlineBackend())

    process, process_stats = _run(tmp_path / "proc",
                                  backend=ProcessBackend(jobs=2), jobs=2)
    assert process == reference
    assert process_stats["simulations"] == len(GRID)
    _assert_warm(tmp_path / "proc", reference)

    backend = RemoteBackend(lease_ttl=10.0, wait_timeout=120.0)
    engine = Engine(cache_dir=tmp_path / "remote", backend=backend)
    with background_server(engine, window=0.01) as server:
        workers = [ServiceWorker(server.url, Engine(use_cache=False),
                                 worker_id=f"w{i}", poll_interval=0.02)
                   for i in range(2)]
        threads = [threading.Thread(target=worker.run, daemon=True)
                   for worker in workers]
        for thread in threads:
            thread.start()
        try:
            remote = engine.run_many(GRID, jobs=4)
        finally:
            for worker in workers:
                worker.stop()
            for thread in threads:
                thread.join(timeout=30)
    assert _stats_dicts(remote) == reference
    # the remote run's admissions persisted: a warm engine over the
    # same cache replays the grid without simulating
    _assert_warm(tmp_path / "remote", reference)
