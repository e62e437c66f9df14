"""Per-backend dispatch overhead on the fig3 grid.

Times a *cold* fig3 grid — no engine cache, every spec simulated from
scratch — through each execution backend and writes
``BENCH_backends.json`` at the repo root:

* ``inline`` — serial execution at one job, the zero-dispatch
  baseline;
* ``pool`` — the inline backend at two jobs, a local process pool
  (pays fork + pickle);
* ``remote`` — one shard per trace (fig3 has five) for two
  in-process HTTP workers pulling leased shards through a real
  ``background_server`` socket (pays the full wire round trip: JSON
  specs out, JSON stats back).

The interesting number is each backend's *overhead vs inline* — the
price of its dispatch machinery — not its absolute wall clock: on a
single machine the distributed backend cannot beat a process pool,
it can only show how little the lease/complete protocol costs (and
therefore how quickly real multi-machine workers would amortize it).

Run directly (``python benchmarks/bench_backends.py``) or via pytest.
"""

import gc
import json
import threading
import time
from pathlib import Path

from repro.engine import Engine, InlineBackend, RemoteBackend
from repro.harness.experiments import fig3_sweep
from repro.service import ServiceWorker, background_server

BENCH_OUT = Path(__file__).resolve().parent.parent / \
    "BENCH_backends.json"
#: best-of-N: simulation is deterministic, so the minimum is the right
#: statistic against GC pauses and noisy neighbors
ROUNDS = 3
WORKERS = 2


def _time_inline(specs) -> float:
    gc.collect()
    start = time.perf_counter()
    Engine(use_cache=False, backend=InlineBackend(jobs=1)).run_many(specs)
    return time.perf_counter() - start


def _time_pool(specs) -> float:
    gc.collect()
    start = time.perf_counter()
    Engine(use_cache=False,
           backend=InlineBackend(jobs=WORKERS)).run_many(specs)
    return time.perf_counter() - start


def _time_remote(specs) -> float:
    engine = Engine(use_cache=False,
                    backend=RemoteBackend(wait_timeout=600.0))
    gc.collect()
    with background_server(engine) as server:
        workers = [ServiceWorker(server.url, Engine(use_cache=False),
                                 worker_id=f"bench-w{i}",
                                 poll_interval=0.005)
                   for i in range(WORKERS)]
        threads = [threading.Thread(target=worker.run, daemon=True)
                   for worker in workers]
        for thread in threads:
            thread.start()
        start = time.perf_counter()
        engine.run_many(specs)
        elapsed = time.perf_counter() - start
        for worker in workers:
            worker.stop()
        for thread in threads:
            thread.join(timeout=30)
    return elapsed


def run_benchmark() -> dict:
    specs = fig3_sweep().specs()
    timers = {"inline": _time_inline, "pool": _time_pool,
              "remote": _time_remote}
    # warm up workload builds, numpy and the allocator before timing
    _time_inline(specs)
    seconds = {name: min(timer(specs) for _ in range(ROUNDS))
               for name, timer in timers.items()}
    baseline = seconds["inline"]
    payload = {
        "grid": f"fig3 cold grid: {len(specs)} specs, "
                f"{WORKERS} workers for pool/remote",
        "rounds": ROUNDS,
        "seconds": {name: round(value, 4)
                    for name, value in seconds.items()},
        "overhead_vs_inline_seconds": {
            name: round(value - baseline, 4)
            for name, value in seconds.items() if name != "inline"},
        "per_spec_overhead_ms": {
            name: round((value - baseline) / len(specs) * 1e3, 3)
            for name, value in seconds.items() if name != "inline"},
    }
    BENCH_OUT.write_text(json.dumps(payload, indent=2) + "\n",
                         encoding="utf-8")
    return payload


def test_backend_dispatch_overhead():
    payload = run_benchmark()
    print()
    print(json.dumps(payload, indent=2))
    # every backend finished the whole grid; dispatch machinery must
    # not dominate the simulations it ships (generous CI-safe bound)
    assert set(payload["seconds"]) == {"inline", "pool", "remote"}
    assert payload["seconds"]["remote"] < 60 * payload["seconds"]["inline"], \
        payload


if __name__ == "__main__":
    print(json.dumps(run_benchmark(), indent=2))
