"""Local process-pool execution backend (the historical default).

Shards group specs sharing one ``(benchmark, coding, seed)`` workload
trace so each pool task builds its trace once; results travel back in
the lossless ``RunStats.to_dict`` form, so parallel execution is
bit-identical to serial execution by construction.
"""

from __future__ import annotations

import threading

from repro.engine.keys import RunSpec
from repro.engine.parallel import (
    TRACE_PREFIX,
    restore_trace_paths,
    shard_specs,
    simulate_specs,
    trace_paths_for,
)
from repro.timing.stats import RunStats
from repro.workloads import get_benchmark


def _pool_worker(specs: tuple[RunSpec, ...],
                 trace_paths: tuple[tuple[str, str], ...] = (),
                 grid_mode: str = "auto") -> list[dict]:
    """Pool entry point: execute a shard, return plain-data stats.

    ``trace_paths`` re-registers the parent's saved-trace paths in the
    worker process (required under the spawn start method, where the
    parent's module state is not inherited).  Shards arrive grouped by
    trace (see ``shard_specs``), so the grid-axis path applies inside
    each pool task as well.
    """
    restore_trace_paths(trace_paths)
    results = simulate_specs(specs, grid_mode=grid_mode)
    return [results[spec].to_dict() for spec in specs]


def _load_simulator(specs) -> None:
    """Import the timing pipelines and the specs' trace generators.

    Called in the parent just before a pool forks: forked workers
    inherit what is loaded, so no worker imports the simulator itself.
    """
    import repro.timing.grid  # noqa: F401
    import repro.timing.pipeline  # noqa: F401

    for name in {spec.benchmark for spec in specs}:
        if not name.startswith(TRACE_PREFIX):
            get_benchmark(name)


class ProcessBackend:
    """Fan uncached specs across a local ``ProcessPoolExecutor``.

    ``jobs`` is the default pool width; ``execute(jobs=...)`` overrides
    it per call.  ``jobs <= 1`` (or a single spec) runs serially on the
    calling thread — no pool, no pickling.  The pool itself is created
    per ``execute`` call, so an idle backend holds no processes.
    """

    name = "process"

    def __init__(self, jobs: int = 1) -> None:
        if jobs <= 0:
            raise ValueError(
                f"jobs must be a positive integer, got {jobs}")
        self.jobs = jobs
        self._lock = threading.Lock()
        self._dispatches = 0
        self._executed = 0
        self._pool_shards = 0

    def execute(self, specs: list[RunSpec], jobs: int | None = None,
                grid_mode: str = "auto") -> dict[RunSpec, RunStats]:
        jobs = self.jobs if jobs is None else jobs
        if jobs <= 0:
            raise ValueError(
                f"jobs must be a positive integer, got {jobs}")
        specs = list(specs)
        if jobs <= 1 or len(specs) <= 1:
            results = simulate_specs(specs, grid_mode=grid_mode)
            with self._lock:
                self._dispatches += 1
                self._executed += len(results)
            return results
        from concurrent.futures import ProcessPoolExecutor

        _load_simulator(specs)
        shards = shard_specs(specs, jobs)
        results: dict[RunSpec, RunStats] = {}
        with ProcessPoolExecutor(
                max_workers=min(jobs, len(shards))) as pool:
            futures = [(shard, pool.submit(_pool_worker, tuple(shard),
                                           trace_paths_for(shard),
                                           grid_mode))
                       for shard in shards]
            for shard, future in futures:
                for spec, payload in zip(shard, future.result()):
                    results[spec] = RunStats.from_dict(payload)
        with self._lock:
            self._dispatches += 1
            self._executed += len(results)
            self._pool_shards += len(shards)
        return results

    def counters(self) -> dict:
        with self._lock:
            return {"dispatches": self._dispatches,
                    "executed": self._executed,
                    "pool_shards": self._pool_shards}

    def close(self) -> None:
        pass
