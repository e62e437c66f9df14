"""Lease-tracked shard queue behind the remote execution backend.

The :class:`WorkQueue` is a plain thread-safe data structure — no HTTP
in here.  The :class:`~repro.engine.backends.remote.RemoteBackend`
enqueues shards and blocks in :meth:`WorkQueue.collect`; the job
service's ``/v1/work/lease`` and ``/v1/work/complete`` endpoints call
:meth:`WorkQueue.lease` / :meth:`WorkQueue.complete` on behalf of
pull-based ``repro worker`` processes.

Delivery semantics:

* **Lease TTL** — a leased shard must be completed within
  ``lease_ttl`` seconds; past the deadline it becomes *expired* and
  the next ``lease()`` call hands it to another worker under a fresh
  lease id (``releases`` counts these).  A worker that dies mid-shard
  therefore delays its shard by at most one TTL.
* **Idempotent completion** — the first completion of a shard wins,
  keyed by the spec digests it carries (a completion must cover its
  shard's spec set exactly, under a lease id that was actually issued
  for it — a never-issued lease id is a protocol error, not a race).
  Completions for an already-completed or already-collected shard — a
  slow worker racing the re-leased one — are acknowledged but change
  nothing (``duplicate_completions``; the TTL re-lease race
  specifically, where *both* the expired and the re-leased worker
  finish, is additionally counted in ``late_completions``), so a
  shard's results enter the engine's cache exactly once no matter how
  many workers finish it.
* **At-most-once results** — ``collect`` removes a shard's results
  when its waiter picks them up; shard ids are never reused.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:
    from repro.engine.keys import RunSpec
    from repro.timing.stats import RunStats


class WorkQueueError(ValueError):
    """A lease/completion request that cannot be honored.

    The service maps this onto a structured HTTP 400 — it marks a
    protocol mistake (unknown shard, wrong spec coverage), never a
    transient condition a worker should retry.
    """


@dataclass(frozen=True)
class WorkShard:
    """One unit of leased work: specs sharing a workload trace.

    The worker plans the shard itself, with the same rule as a local
    dispatch (``parallel.plan_grid``).
    """

    shard_id: str
    specs: "tuple[RunSpec, ...]"


@dataclass(frozen=True)
class WorkLease:
    """A shard handed to one worker, valid for ``ttl`` seconds."""

    lease_id: str
    worker_id: str
    ttl: float
    shard: WorkShard


def _fresh_id() -> str:
    return uuid.uuid4().hex[:12]


class WorkQueue:
    """Thread-safe shard queue with lease expiry and exactly-once
    result collection (see the module docstring for semantics)."""

    def __init__(self, lease_ttl: float = 30.0, clock=time.monotonic,
                 fault_plan=None):
        if lease_ttl <= 0:
            raise ValueError(
                f"lease_ttl must be positive, got {lease_ttl}")
        self.lease_ttl = lease_ttl
        self._clock = clock
        if fault_plan is None:
            # lazy: the engine package must not import the service
            # package at module load (the service imports us)
            from repro.service.faults import resolve_plan
            fault_plan = resolve_plan(None)
        self._faults = fault_plan
        self._cond = threading.Condition()
        self._pending: deque[WorkShard] = deque()
        #: every enqueued-but-not-yet-collected shard, by id
        self._shards: dict[str, WorkShard] = {}
        #: shard id -> (lease id, worker id, issued at, expiry deadline)
        self._leases: dict[str, tuple[str, str, float, float]] = {}
        #: completed-but-not-yet-collected results, by shard id
        self._done: dict[str, dict] = {}
        #: shard ids whose results were collected or discarded —
        #: late completions for these are acknowledged duplicates
        self._retired: set[str] = set()
        #: every lease id ever issued per shard — completions must
        #: name one of these (never-issued ids are protocol errors)
        self._issued: dict[str, set[str]] = {}
        self._counters = {
            "enqueued_shards": 0,
            "enqueued_specs": 0,
            "leases": 0,
            "releases": 0,
            "completions": 0,
            "completed_specs": 0,
            "duplicate_completions": 0,
            "late_completions": 0,
            "stale_completions": 0,
            "discarded": 0,
        }

    # -- producer side (the RemoteBackend) ---------------------------------

    def enqueue(self, shards: Sequence[Sequence["RunSpec"]]) -> list[str]:
        """Queue shards for leasing; returns their (fresh) shard ids."""
        created = [WorkShard(shard_id=_fresh_id(), specs=tuple(specs))
                   for specs in shards if specs]
        with self._cond:
            for shard in created:
                self._pending.append(shard)
                self._shards[shard.shard_id] = shard
                self._counters["enqueued_shards"] += 1
                self._counters["enqueued_specs"] += len(shard.specs)
        return [shard.shard_id for shard in created]

    def collect(self, shard_ids: Sequence[str], timeout: float
                ) -> "dict[RunSpec, RunStats]":
        """Block until every shard completed; pop and merge results.

        Raises :class:`TimeoutError` (leaving the shards in place —
        call :meth:`discard` to abandon them) when the deadline
        passes first.
        """
        deadline = self._clock() + timeout
        with self._cond:
            while not all(sid in self._done for sid in shard_ids):
                remaining = deadline - self._clock()
                if remaining <= 0:
                    missing = [sid for sid in shard_ids
                               if sid not in self._done]
                    raise TimeoutError(
                        f"{len(missing)} shard(s) not completed within "
                        f"{timeout:.0f}s — is a worker attached?")
                self._cond.wait(remaining)
            results: dict = {}
            for sid in shard_ids:
                results.update(self._done.pop(sid))
                self._shards.pop(sid, None)
                self._retired.add(sid)
            return results

    def discard(self, shard_ids: Sequence[str]) -> None:
        """Abandon shards (after a collect timeout): drop any state and
        retire the ids so late completions become duplicates."""
        with self._cond:
            for sid in shard_ids:
                shard = self._shards.pop(sid, None)
                if shard is not None:
                    try:
                        self._pending.remove(shard)
                    except ValueError:
                        pass
                    self._counters["discarded"] += 1
                self._leases.pop(sid, None)
                self._done.pop(sid, None)
                self._retired.add(sid)

    # -- worker side (the /v1/work endpoints) ------------------------------

    def lease(self, worker_id: str) -> WorkLease | None:
        """Hand one shard to ``worker_id``, or None when idle.

        Expired leases are re-issued before pending shards, so a dead
        worker's shard is the next thing a live worker picks up.
        """
        rule = self._faults.fire("lease.grant")
        if rule is not None and rule.action == "drop":
            return None  # injected: pretend the queue is idle
        ttl = self.lease_ttl
        if rule is not None and rule.action == "expire":
            ttl = 0.0  # injected: born expired — forces a re-lease
        with self._cond:
            now = self._clock()
            for sid, (_lease, _owner, _issued, until) in \
                    self._leases.items():
                if until <= now:
                    lease = self._issue(self._shards[sid], worker_id,
                                        ttl)
                    self._counters["releases"] += 1
                    return lease
            if self._pending:
                return self._issue(self._pending.popleft(), worker_id,
                                   ttl)
            return None

    def _issue(self, shard: WorkShard, worker_id: str,
               ttl: float) -> WorkLease:
        lease_id = _fresh_id()
        now = self._clock()
        self._leases[shard.shard_id] = (
            lease_id, worker_id, now, now + ttl)
        self._issued.setdefault(shard.shard_id, set()).add(lease_id)
        self._counters["leases"] += 1
        return WorkLease(lease_id=lease_id, worker_id=worker_id,
                         ttl=self.lease_ttl, shard=shard)

    def complete(self, shard_id: str, lease_id: str,
                 results: "Mapping[RunSpec, RunStats]"
                 ) -> tuple[int, int]:
        """Record a shard's results; returns ``(fresh, duplicate)``
        spec counts.

        First completion wins.  A completion for a retired or
        already-completed shard is a no-op acknowledged as all-
        duplicate — and when it arrives under a lease id that really
        was issued for the shard (the TTL re-lease race run to *both*
        ends: the expired worker and its replacement each finish),
        it additionally counts as a ``late_completion``.  One carrying
        the wrong spec set, an unknown shard id, or a lease id never
        issued for the shard raises :class:`WorkQueueError`.
        """
        with self._cond:
            issued = self._issued.get(shard_id, set())
            if shard_id in self._retired or shard_id in self._done:
                if lease_id not in issued:
                    raise WorkQueueError(
                        f"lease {lease_id!r} was never issued for "
                        f"shard {shard_id!r}")
                self._counters["duplicate_completions"] += 1
                self._counters["late_completions"] += 1
                return 0, len(results)
            shard = self._shards.get(shard_id)
            if shard is None:
                raise WorkQueueError(f"unknown shard {shard_id!r}")
            expected = {spec.digest() for spec in shard.specs}
            got = {spec.digest() for spec in results}
            if got != expected:
                raise WorkQueueError(
                    f"completion for shard {shard_id!r} must cover its "
                    f"{len(expected)} spec(s) exactly "
                    f"({len(got - expected)} unknown, "
                    f"{len(expected - got)} missing)")
            if lease_id not in issued:
                raise WorkQueueError(
                    f"lease {lease_id!r} was never issued for shard "
                    f"{shard_id!r}")
            lease = self._leases.pop(shard_id, None)
            if lease is None or lease[0] != lease_id:
                # expired-and-re-leased worker finishing first, or a
                # producer-side discard raced the upload: still the
                # first valid result set, so accept it
                self._counters["stale_completions"] += 1
            try:
                self._pending.remove(shard)  # completed while pending
            except ValueError:
                pass
            self._done[shard_id] = dict(results)
            self._counters["completions"] += 1
            self._counters["completed_specs"] += len(results)
            self._cond.notify_all()
            return len(results), 0

    # -- introspection -----------------------------------------------------

    def counters(self) -> dict:
        """Counter snapshot plus live depth and lease-age gauges.

        ``oldest_lease_age`` is the seconds the longest-outstanding
        lease has been held (0.0 when nothing is leased) — the fleet-
        health signal: an age past ``lease_ttl`` means a worker took a
        shard and has not come back, and the shard is due a re-lease.
        """
        with self._cond:
            snapshot = dict(self._counters)
            snapshot["pending_shards"] = len(self._pending)
            snapshot["leased_shards"] = len(self._leases)
            now = self._clock()
            snapshot["oldest_lease_age"] = max(
                (now - issued
                 for _lease, _owner, issued, _until
                 in self._leases.values()), default=0.0)
            return snapshot
