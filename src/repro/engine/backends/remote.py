"""Distributed execution backend over pull-based workers.

``RemoteBackend.execute`` shards its specs exactly like the inline
backend's pool (one shard per workload trace, via
:func:`~repro.engine.parallel.shard_specs`), enqueues the shards on a
:class:`~repro.engine.backends.workqueue.WorkQueue`, and blocks until
every shard is completed.  It runs no simulations itself: workers —
``repro worker`` loops polling the job service's ``/v1/work/lease``
endpoint — execute the shards on *their* local engines and upload
``RunStats`` through ``/v1/work/complete``, from where they flow back
through this backend into the coordinating engine's memo and
content-addressed disk cache.

The backend is transport-agnostic: it only ever touches the queue, so
the same object serves a full ``repro serve --backend remote`` service
and an in-process test harness driving the queue directly.
"""

from __future__ import annotations

from repro.engine.backends.workqueue import WorkQueue
from repro.engine.keys import RunSpec
from repro.engine.parallel import TRACE_PREFIX, shard_specs
from repro.errors import ConfigError
from repro.timing.stats import RunStats


class RemoteBackend:
    """Dispatch shards to remote workers through a lease queue.

    Each dispatch enqueues one shard per workload trace, so as many
    workers as it has traces can pull concurrently; the fleet is as
    wide as the workers its operator starts.  ``wait_timeout`` bounds
    how long a dispatch waits for workers before failing the batch
    (and discarding its shards, so a worker showing up late finds only
    duplicates to report).
    """

    name = "remote"

    def __init__(self, lease_ttl: float = 30.0,
                 wait_timeout: float = 600.0,
                 queue: WorkQueue | None = None) -> None:
        self.queue = queue if queue is not None else \
            WorkQueue(lease_ttl=lease_ttl)
        self.wait_timeout = wait_timeout

    def execute(self, specs: list[RunSpec]) -> dict[RunSpec, RunStats]:
        specs = list(specs)
        unresolvable = [spec for spec in specs
                        if spec.benchmark.startswith(TRACE_PREFIX)]
        if unresolvable:
            raise ConfigError(
                f"{unresolvable[0].benchmark!r} names a locally "
                f"registered trace file; saved-trace replays cannot be "
                f"dispatched to remote workers — use the inline "
                f"backend for them")
        if not specs:
            return {}
        shard_ids = self.queue.enqueue(shard_specs(specs))
        try:
            return self.queue.collect(shard_ids,
                                      timeout=self.wait_timeout)
        except TimeoutError:
            self.queue.discard(shard_ids)
            raise

    def counters(self) -> dict:
        return dict(self.queue.counters())

    def close(self) -> None:
        pass
