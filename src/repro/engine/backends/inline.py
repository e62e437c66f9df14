"""Local execution backend: the calling thread, or a process pool.

The width defaults to the usable cores.  At one job, over one trace,
or off the main thread, the specs simulate serially on the calling
thread.  Otherwise they shard by workload trace, one shard per trace,
and fan across a ``ProcessPoolExecutor`` built for the call; results
travel back in the lossless ``RunStats.to_dict`` form, so pooled
execution is bit-identical to serial execution by construction.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.engine.backends import usable_cores

if TYPE_CHECKING:
    from repro.engine.keys import RunSpec
    from repro.timing.stats import RunStats


def _pool_worker(specs: tuple[RunSpec, ...],
                 trace_paths: tuple[tuple[str, str], ...] = ()
                 ) -> list[dict]:
    """Pool entry point: execute a shard, return plain-data stats.

    ``trace_paths`` re-registers the parent's saved-trace paths in the
    worker process (required under the spawn start method, where the
    parent's module state is not inherited).  Each shard is one whole
    trace, so the grid-axis path applies inside each pool task as
    well.
    """
    from repro.engine.parallel import restore_trace_paths, simulate_specs

    restore_trace_paths(trace_paths)
    results = simulate_specs(specs)
    return [results[spec].to_dict() for spec in specs]


def _exit_with_parent() -> None:
    """Pool initializer: end this worker as soon as its parent dies.

    A worker waiting for its next task is never told that the parent
    is gone (a killed ``repro tables``), so a daemon thread waits on
    the parent's sentinel, which turns ready when the parent exits.
    """
    import multiprocessing.connection
    import os

    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent",
                     daemon=True).start()


def _run_pool(shards, jobs: int) -> dict[RunSpec, RunStats]:
    """Run each shard as one task of a ``jobs``-wide process pool.

    The parent first imports the timing pipelines, the memory ports,
    the shards' trace generators and ``numpy.random``, which the trace
    builds import lazily: forked workers inherit what is loaded, so no
    worker imports the simulator itself.  Each worker exits when the
    parent dies (``_exit_with_parent``).
    """
    from concurrent.futures import ProcessPoolExecutor

    import numpy.random  # noqa: F401

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
    with ProcessPoolExecutor(max_workers=min(jobs, len(shards)),
                             initializer=_exit_with_parent) as pool:
        futures = [(shard, pool.submit(_pool_worker, tuple(shard),
                                       trace_paths_for(shard)))
                   for shard in shards]
        for shard, future in futures:
            for spec, payload in zip(shard, future.result()):
                results[spec] = RunStats.from_dict(payload)
    return results


class InlineBackend:
    """Execute specs on this machine, ``jobs`` processes wide.

    ``jobs`` defaults to the usable cores
    (:func:`~repro.engine.backends.usable_cores`).  At ``jobs == 1``,
    when the specs share one workload trace, or when called off the
    main thread, they run serially on the calling thread: no pool, no
    pickling, and no fork from a process whose other threads may hold
    locks (the service runs its engine on executor threads).
    Otherwise each ``execute`` call builds a pool of ``min(jobs,
    traces)`` workers over one shard per trace (``shard_specs``), so
    an idle backend holds no processes.  Trace groups run through the
    grid-axis pipeline (``simulate_specs``), inside each pool task
    too.  Counters are lock-guarded because one engine (and therefore
    one backend) may be shared by the service's executor threads.
    """

    name = "inline"

    def __init__(self, jobs: int | None = None) -> None:
        if jobs is None:
            jobs = usable_cores()
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
        if (self.jobs > 1
                and threading.current_thread() is threading.main_thread()):
            from repro.engine.parallel import shard_specs

            shards = shard_specs(specs)
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
