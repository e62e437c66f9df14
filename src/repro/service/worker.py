"""Pull-based simulation worker (the ``repro worker`` subcommand).

A :class:`ServiceWorker` attaches to a ``repro serve --backend remote``
instance and loops: lease one shard over ``POST /v1/work/lease``,
resolve its specs on the *local* engine (which brings the worker's own
memo, disk cache and process pool to bear), upload the ``RunStats``
through ``POST /v1/work/complete``, repeat.  Any number of workers may
attach to one service; the server's lease queue guarantees each shard
is admitted exactly once no matter how many workers race or die
mid-shard (see ``docs/backends.md``).

The loop is hardened against every per-shard failure mode:

* **Engine errors** — a shard whose simulation raises (corrupt spec,
  engine bug) is counted (``failed_shards``), logged, and *skipped*;
  the worker keeps polling and the abandoned lease expires into a
  re-lease for a healthy worker.  One bad shard never kills a worker.
* **Transport errors** — a restarting or unreachable server is
  retried under capped exponential backoff with jitter (so a whole
  fleet does not hammer a recovering server in lockstep); the backoff
  resets as soon as the server answers again.  A server *without* a
  work queue (wrong ``--backend``) is a configuration mistake and
  raises immediately.

Each lease poll and completion carries the worker's cumulative
counters as an additive ``report`` payload, which the coordinator
folds into its fleet-health gauges on ``GET /v1/metrics`` — a worker
whose engine keeps failing shards is visible centrally even though it
never completes anything.
"""

from __future__ import annotations

import os
import random
import signal
import sys
import threading
import time
import uuid
from dataclasses import asdict, dataclass

from repro.engine import Engine
from repro.service.client import ServiceClient, ServiceError
from repro.service.faults import InjectedFault, resolve_plan


@dataclass
class WorkerStats:
    """What one worker loop did (mirrored in its ``[worker]`` line)."""

    #: shards leased to this worker
    leases: int = 0
    #: shards completed and acknowledged by the server
    completions: int = 0
    #: specs resolved on the local engine across all shards
    specs: int = 0
    #: specs the server had already admitted when this worker's
    #: completion arrived (another worker finished the shard first)
    duplicate_specs: int = 0
    #: lease polls that found no work
    idle_polls: int = 0
    #: transient transport errors survived
    errors: int = 0
    #: leased shards whose local simulation raised (skipped; the
    #: lease expired into a re-lease for another worker)
    failed_shards: int = 0
    #: wall seconds spent simulating shards (not idle, not transport)
    busy_seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        return (f"leases={self.leases} completions={self.completions} "
                f"specs={self.specs} "
                f"duplicate-specs={self.duplicate_specs} "
                f"idle-polls={self.idle_polls} errors={self.errors} "
                f"failed-shards={self.failed_shards} "
                f"busy-seconds={self.busy_seconds:.2f}")


class ServiceWorker:
    """One lease/simulate/upload loop against a remote-backend server.

    ``max_idle`` (seconds without obtaining work, unreachable server
    included) and ``max_shards`` bound the loop for tests and batch
    jobs; both default to unbounded — a production worker polls
    forever until :meth:`stop` or SIGINT.

    ``retry_backoff`` seeds the transient-error backoff, which doubles
    per consecutive failure up to ``retry_backoff_max`` (with jitter)
    and resets after any successful request.  ``clock`` and ``rng``
    are injectable for deterministic tests.
    """

    def __init__(self, url: str, engine: Engine | None = None, *,
                 worker_id: str | None = None,
                 poll_interval: float = 0.2,
                 retry_backoff: float = 1.0,
                 retry_backoff_max: float = 30.0,
                 max_idle: float | None = None,
                 max_shards: int | None = None,
                 clock=time.monotonic,
                 rng: random.Random | None = None,
                 fault_plan=None):
        if retry_backoff <= 0:
            raise ValueError(
                f"retry_backoff must be positive, got {retry_backoff}")
        if retry_backoff_max < retry_backoff:
            raise ValueError(
                f"retry_backoff_max ({retry_backoff_max}) must be >= "
                f"retry_backoff ({retry_backoff})")
        #: chaos harness: the same plan drives the client's transport
        #: seams and this loop's ``worker.simulate`` seam (defaults to
        #: the REPRO_FAULTS environment plan, usually empty)
        self._plan = resolve_plan(fault_plan)
        self.client = ServiceClient(url, fault_plan=self._plan)
        self.engine = engine if engine is not None else Engine()
        self.worker_id = worker_id or f"worker-{uuid.uuid4().hex[:8]}"
        self.poll_interval = poll_interval
        self.retry_backoff = retry_backoff
        self.retry_backoff_max = retry_backoff_max
        self.max_idle = max_idle
        self.max_shards = max_shards
        self.stats = WorkerStats()
        self._clock = clock
        self._rng = rng if rng is not None else random.Random()
        #: current consecutive-transient-error backoff (0 = healthy)
        self._backoff = 0.0
        self._stop = threading.Event()

    def stop(self) -> None:
        """Ask the loop to exit after its current shard."""
        self._stop.set()

    def run(self) -> WorkerStats:
        """Poll until stopped (or an idle/shard bound is reached)."""
        idle_since = self._clock()
        while not self._stop.is_set():
            try:
                grant = self.client.lease_work(
                    self.worker_id, report=self.stats.to_dict())
            except ServiceError as exc:
                if exc.reply is not None and \
                        exc.reply.code == "no-work-queue":
                    raise  # misconfigured target; retrying cannot help
                if self._idle_pause(idle_since, self._next_backoff(),
                                    error=True):
                    break
                continue
            except OSError:
                # connection refused/reset: the server may be
                # restarting — keep polling (under growing backoff)
                # until max_idle gives up
                if self._idle_pause(idle_since, self._next_backoff(),
                                    error=True):
                    break
                continue
            self._backoff = 0.0  # the server answered: healthy again
            if grant is None:
                if self._idle_pause(idle_since, self.poll_interval):
                    break
                continue
            self.stats.leases += 1
            started = self._clock()
            try:
                self._simulate_fault(grant.shard_id)
                results = self.engine.run_many(grant.specs)
            except Exception as exc:  # noqa: BLE001 - shard boundary
                # Any simulation failure is scoped to its shard: count
                # it, log it, abandon the lease (it expires into a
                # re-lease for a healthy worker) and keep polling.
                self.stats.errors += 1
                self.stats.failed_shards += 1
                print(f"[worker] {self.worker_id}: shard "
                      f"{grant.shard_id} failed locally and was "
                      f"skipped: {exc!r}", file=sys.stderr)
                idle_since = self._clock()
                continue
            elapsed = self._clock() - started
            self.stats.busy_seconds += elapsed
            try:
                reply = self.client.complete_work(
                    self.worker_id, grant, results, elapsed=elapsed,
                    report=self.stats.to_dict())
            except (ServiceError, OSError):
                # lost upload: the lease will expire and another
                # worker (or this one) will redo the shard
                self.stats.errors += 1
            else:
                self.stats.completions += 1
                self.stats.specs += len(grant.specs)
                self.stats.duplicate_specs += \
                    int(reply.get("duplicate", 0) or 0)
                if self.max_shards is not None and \
                        self.stats.completions >= self.max_shards:
                    break
            # the shard kept this worker busy the whole time, however
            # long it simulated: the idle budget restarts only now
            idle_since = self._clock()
        return self.stats

    def _simulate_fault(self, shard_id: str) -> None:
        """Fire the ``worker.simulate`` chaos seam for one shard.

        ``crash`` raises (exercising the ordinary shard-failure path:
        counted, logged, lease expires into a re-lease); ``sigkill``
        kills this process outright mid-shard, so the server's TTL
        re-lease hands the shard to another worker for real; ``delay``
        stalls past the injected seconds (holding the lease toward
        expiry).
        """
        if not self._plan:
            return
        rule = self._plan.fire("worker.simulate")
        if rule is None:
            return
        if rule.action == "sigkill":
            print(f"[worker] {self.worker_id}: injected SIGKILL "
                  f"mid-shard {shard_id}", file=sys.stderr, flush=True)
            os.kill(os.getpid(), signal.SIGKILL)
        elif rule.action == "crash":
            raise InjectedFault("worker.simulate", "crash")
        elif rule.action == "delay":
            self._wait(float(rule.arg) if rule.arg else 1.0)

    def _next_backoff(self) -> float:
        """Advance the exponential backoff; returns the jittered pause.

        Doubles per consecutive transient error, capped at
        ``retry_backoff_max``; the jitter (50-100% of the current
        level) decorrelates a fleet of workers that all lost the same
        server at the same moment.
        """
        if self._backoff <= 0:
            self._backoff = self.retry_backoff
        else:
            self._backoff = min(self.retry_backoff_max,
                                self._backoff * 2)
        return self._backoff * (0.5 + 0.5 * self._rng.random())

    def _idle_pause(self, idle_since: float, pause: float,
                    error: bool = False) -> bool:
        """Sleep between polls; True when the idle budget is spent.

        The budget check charges only time actually elapsed — the
        final pause is clamped to whatever budget remains, so a worker
        with ``max_idle=1`` really waits the full second before giving
        up instead of surrendering one poll interval early.
        """
        if error:
            self.stats.errors += 1
        else:
            self.stats.idle_polls += 1
        if self.max_idle is not None:
            remaining = self.max_idle - (self._clock() - idle_since)
            if remaining <= 0:
                return True
            pause = min(pause, remaining)
        # wait on the stop event so stop() interrupts the pause
        return self._wait(pause)

    def _wait(self, pause: float) -> bool:
        """Interruptible sleep; True when stop() was requested.

        Isolated so fake-clock tests can substitute a virtual wait.
        """
        return self._stop.wait(pause)


def work(url: str, engine: Engine | None = None,
         announce=None, **kwargs) -> WorkerStats:
    """Blocking entry point (the ``repro worker`` subcommand)."""
    worker = ServiceWorker(url, engine, **kwargs)
    if announce is not None:
        announce(worker.worker_id)
    try:
        return worker.run()
    except KeyboardInterrupt:
        return worker.stats
    finally:
        worker.client.close()
