"""Local execution backend: the calling thread, or a process pool.

At one job the specs simulate serially on the calling thread.  Wider,
they shard by workload trace and fan across a ``ProcessPoolExecutor``
built for the call; results travel back in the lossless
``RunStats.to_dict`` form, so pooled execution is bit-identical to
serial execution by construction.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.engine.keys import RunSpec
    from repro.timing.stats import RunStats


def _pool_worker(specs: tuple[RunSpec, ...],
                 trace_paths: tuple[tuple[str, str], ...] = ()
                 ) -> list[dict]:
    """Pool entry point: execute a shard, return plain-data stats.

    ``trace_paths`` re-registers the parent's saved-trace paths in the
    worker process (required under the spawn start method, where the
    parent's module state is not inherited).  Shards arrive grouped by
    trace (see ``shard_specs``), so the grid-axis path applies inside
    each pool task as well.
    """
    from repro.engine.parallel import restore_trace_paths, simulate_specs

    restore_trace_paths(trace_paths)
    results = simulate_specs(specs)
    return [results[spec].to_dict() for spec in specs]


def _run_pool(shards, jobs: int) -> dict[RunSpec, RunStats]:
    """Run each shard as one task of a ``jobs``-wide process pool.

    The parent first imports the timing pipelines, the memory ports and
    the shards' trace generators: forked workers inherit what is
    loaded, so no worker imports the simulator itself.
    """
    from concurrent.futures import ProcessPoolExecutor

    import repro.memsys.ideal  # noqa: F401
    import repro.timing.grid  # noqa: F401
    import repro.timing.pipeline  # noqa: F401
    from repro.engine.parallel import TRACE_PREFIX, trace_paths_for
    from repro.timing.stats import RunStats
    from repro.workloads import get_benchmark

    for name in {spec.benchmark for shard in shards for spec in shard}:
        if not name.startswith(TRACE_PREFIX):
            get_benchmark(name)
    results = {}
    with ProcessPoolExecutor(max_workers=min(jobs, len(shards))) as pool:
        futures = [(shard, pool.submit(_pool_worker, tuple(shard),
                                       trace_paths_for(shard)))
                   for shard in shards]
        for shard, future in futures:
            for spec, payload in zip(shard, future.result()):
                results[spec] = RunStats.from_dict(payload)
    return results


class InlineBackend:
    """Execute specs on this machine, ``jobs`` processes wide.

    At ``jobs == 1``, or when the specs form one shard, they run
    serially on the calling thread: no pool, no pickling.  Otherwise
    each ``execute`` call builds a pool over ``shard_specs(specs,
    jobs)``, so an idle backend holds no processes.  Trace groups run
    through the grid-axis pipeline (``simulate_specs``), inside each
    pool task too.  Counters are lock-guarded because one
    engine (and therefore one backend) may be shared by the service's
    executor threads.
    """

    name = "inline"

    def __init__(self, jobs: int = 1) -> None:
        if jobs <= 0:
            raise ValueError(
                f"jobs must be a positive integer, got {jobs}")
        self.jobs = jobs
        self._lock = threading.Lock()
        self._dispatches = 0
        self._executed = 0
        self._pool_shards = 0

    def execute(self, specs: list[RunSpec]) -> dict[RunSpec, RunStats]:
        pooled = 0
        if self.jobs > 1:
            from repro.engine.parallel import shard_specs

            shards = shard_specs(specs, self.jobs)
            if len(shards) > 1:
                results = _run_pool(shards, self.jobs)
                pooled = len(shards)
        if not pooled:
            from repro.engine.parallel import simulate_specs

            results = simulate_specs(specs)
        with self._lock:
            self._dispatches += 1
            self._executed += len(results)
            self._pool_shards += pooled
        return results

    def counters(self) -> dict:
        with self._lock:
            return {"dispatches": self._dispatches,
                    "executed": self._executed,
                    "pool_shards": self._pool_shards}

    def close(self) -> None:
        pass
