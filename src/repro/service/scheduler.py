"""Asyncio scheduler over one shared :class:`Engine`.

The scheduler is the service's concurrency heart:

* **In-flight dedup** — every unique :class:`RunSpec` has at most one
  pending future; N clients asking for the same spec while it runs all
  await that future, so the grid costs one simulation pass no matter
  how many submit it.
* **Memo hits at submit** — a spec the engine's in-process memo
  already holds resolves inside ``submit`` and is never dispatched.
* **One dispatch per submission** — the submission's other new specs
  go out at once as one batch, resolved by a single
  ``Engine.run_many`` call, so the engine's grid planner sees the
  whole job.
* **Non-blocking event loop** — `run_many` executes on a
  ``ThreadPoolExecutor`` thread (the engine is lock-protected for
  exactly this), so HTTP handling keeps serving while simulations run.

:class:`Job` / :class:`JobStore` sit on top: a job snapshots one
submission's futures under a stable id so clients can poll it over
HTTP (``GET /v1/jobs/<id>``).
"""

from __future__ import annotations

import asyncio
import itertools
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.engine import Engine, validate_spec
from repro.engine.keys import RunSpec
from repro.service.schema import JobResult


@dataclass
class SchedulerStats:
    """Dedup and dispatch evidence, mirrored on ``GET /v1/stats``."""

    #: specs submitted, before any dedup
    submitted: int = 0
    #: submissions that attached to an already in-flight future
    coalesced: int = 0
    #: ``Engine.run_many`` dispatches issued
    batches: int = 0
    #: unique specs those dispatches carried
    batched_specs: int = 0

    def to_dict(self) -> dict:
        return {"submitted": self.submitted,
                "coalesced": self.coalesced,
                "batches": self.batches,
                "batched_specs": self.batched_specs}


class BatchScheduler:
    """In-flight dedup in front of a shared Engine, one dispatch per
    submission.

    Single-threaded discipline: every method except the executor-side
    ``Engine.run_many`` call runs on the owning event loop, so the
    in-flight map needs no lock of its own.
    """

    def __init__(self, engine: Engine, *, max_workers: int = 2,
                 metrics=None):
        self.engine = engine
        self.stats = SchedulerStats()
        self._inflight: dict[RunSpec, asyncio.Future] = {}
        self._dispatches: set[asyncio.Task] = set()
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-batch")
        self._closed = False
        self._latency = None
        self._batch_sizes = None
        if metrics is not None:
            self._bind_metrics(metrics)

    def _bind_metrics(self, metrics) -> None:
        """Publish dedup and dispatch counters and latency/size
        histograms.

        The counters are callback-backed views of ``self.stats`` (one
        registry per scheduler — sharing a registry between schedulers
        raises on the duplicate names, by design).
        """
        from repro.service.metrics import LATENCY_BUCKETS, SIZE_BUCKETS
        stats = self.stats
        for field, help_text in (
                ("submitted", "Specs submitted, before any dedup."),
                ("coalesced",
                 "Submissions that attached to an in-flight future."),
                ("batches", "Engine.run_many dispatches issued."),
                ("batched_specs",
                 "Unique specs carried by those dispatches.")):
            metrics.counter(f"repro_scheduler_{field}_total", help_text,
                            fn=lambda f=field: getattr(stats, f))
        self._latency = metrics.histogram(
            "repro_scheduler_job_latency_seconds",
            "Submit-to-resolution latency per unique spec: its "
            "batch's executor wait and run (0 for a memo hit answered "
            "at submit).",
            buckets=LATENCY_BUCKETS)
        self._batch_sizes = metrics.histogram(
            "repro_scheduler_batch_size_specs",
            "Valid specs per dispatched batch.",
            buckets=SIZE_BUCKETS)

    # -- lifecycle ---------------------------------------------------------

    async def close(self) -> None:
        """Refuse new submissions, let the running batches land, and
        release the executor.

        Every in-flight future belongs to a running batch, so each
        resolves before this returns.
        """
        self._closed = True
        if self._dispatches:
            await asyncio.gather(*self._dispatches,
                                 return_exceptions=True)
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "BatchScheduler":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- submission --------------------------------------------------------

    def submit(self, specs: Iterable[RunSpec]) -> list[asyncio.Future]:
        """Register specs; returns one future per input.

        A spec the engine's memo already holds comes back as a resolved
        future; duplicates of a running spec share its future.  The
        other specs leave at once, as one batch.
        """
        if self._closed:
            raise RuntimeError("scheduler is closed")
        loop = asyncio.get_running_loop()
        futures: list[asyncio.Future] = []
        misses: list[RunSpec] = []
        for spec in specs:
            self.stats.submitted += 1
            future = self._inflight.get(spec)
            if future is not None:
                self.stats.coalesced += 1
            # memo only: a disk read here would block the event loop,
            # so disk hits still go through a batch on the executor
            elif (hit := self.engine.memo_lookup(spec)) is not None:
                future = loop.create_future()
                future.set_result(hit)
                if self._latency is not None:
                    self._latency.observe(0.0)
            else:
                future = loop.create_future()
                future.add_done_callback(_retrieve_exception)
                self._inflight[spec] = future
                misses.append(spec)
                if self._latency is not None:
                    # one observation per unique spec, taken at
                    # resolution time so the executor wait and the
                    # simulation both count
                    submitted_at = time.monotonic()
                    future.add_done_callback(
                        lambda _f, t0=submitted_at: self._latency
                        .observe(time.monotonic() - t0))
            futures.append(future)
        if misses:
            task = loop.create_task(self._dispatch(misses))
            self._dispatches.add(task)
            task.add_done_callback(self._dispatches.discard)
        return futures

    # -- dispatch ----------------------------------------------------------

    def _fail_spec(self, spec: RunSpec, exc: Exception) -> None:
        future = self._inflight.pop(spec, None)
        if future is not None and not future.done():
            future.set_exception(exc)

    async def _dispatch(self, batch: list[RunSpec]) -> None:
        loop = asyncio.get_running_loop()
        # Screen the batch first (cheap config-level validation): one
        # bad spec must fail alone, not poison its batchmates or force
        # the batched pass to be repeated.
        valid = []
        for spec in batch:
            try:
                validate_spec(spec)
            except Exception as exc:  # noqa: BLE001 - to the waiter
                self._fail_spec(spec, exc)
            else:
                valid.append(spec)
        if not valid:
            return
        # counted here, after screening: /v1/stats reports what the
        # engine was actually asked to resolve
        self.stats.batches += 1
        self.stats.batched_specs += len(valid)
        if self._batch_sizes is not None:
            self._batch_sizes.observe(len(valid))
        try:
            results = await loop.run_in_executor(
                self._executor, self.engine.run_many, valid)
        except TimeoutError as exc:
            # the backend gave up waiting for workers: re-running each
            # spec alone would wait as long again, once per spec
            for spec in valid:
                self._fail_spec(spec, exc)
        except Exception:  # noqa: BLE001 - re-resolved per spec below
            # Unexpected mid-simulation failure: resolve per spec so
            # only the offending specs' futures carry an exception.
            for spec in valid:
                future = self._inflight.get(spec)
                if future is None or future.done():
                    self._inflight.pop(spec, None)
                    continue
                try:
                    stats = await loop.run_in_executor(
                        self._executor, self.engine.run, spec)
                except Exception as exc:  # noqa: BLE001 - to the waiter
                    self._fail_spec(spec, exc)
                else:
                    self._inflight.pop(spec, None)
                    future.set_result(stats)
        else:
            for spec in valid:
                future = self._inflight.pop(spec, None)
                if future is not None and not future.done():
                    future.set_result(results[spec])


def _retrieve_exception(future: asyncio.Future) -> None:
    """Mark a failed future's exception retrieved as it resolves.

    A job whose client stopped polling still holds its futures, and
    asyncio would log each unretrieved exception, with a traceback,
    when the future is collected.  Its waiters still receive it.
    """
    if not future.cancelled():
        future.exception()


# -- jobs ------------------------------------------------------------------


class Job:
    """One submission's futures under a stable, pollable id.

    ``deadline`` (seconds, optional) starts the job's expiry clock at
    admission: once it passes with futures still pending, the job
    reports the terminal ``expired`` status — a structured timeout
    for pollers — while the futures run on (their results still warm
    the cache; in-flight dedup means other jobs may be waiting on
    them too).  A job that finishes before anyone polls past the
    deadline stays ``done``: expiry is judged at snapshot time
    against future completion, not retroactively.
    """

    def __init__(self, specs: Sequence[RunSpec],
                 futures: Sequence[asyncio.Future],
                 deadline: float | None = None,
                 clock=time.monotonic):
        self.job_id = uuid.uuid4().hex[:12]
        self.specs = tuple(specs)
        self.futures = tuple(futures)
        self.deadline = deadline
        self._clock = clock
        self._expires_at = (None if deadline is None
                            else clock() + deadline)
        #: a terminal snapshot has been delivered to some client —
        #: eviction prefers these, so an unfetched result survives a
        #: submission burst (see :meth:`JobStore.add`)
        self.served = False

    @property
    def done(self) -> bool:
        return all(future.done() for future in self.futures)

    @property
    def expired(self) -> bool:
        return (self._expires_at is not None and not self.done
                and self._clock() >= self._expires_at)

    def status(self) -> str:
        if not self.done:
            return "expired" if self.expired else "running"
        if any(future.exception() is not None for future in self.futures):
            return "failed"
        return "done"

    def snapshot(self) -> JobResult:
        """The job's current state as a wire-ready :class:`JobResult`."""
        status = self.status()
        if status == "done":
            results = tuple((spec, future.result())
                            for spec, future in zip(self.specs,
                                                    self.futures))
            return JobResult(job_id=self.job_id, status=status,
                             results=results)
        if status == "failed":
            errors = [future.exception() for future in self.futures
                      if future.done()
                      and future.exception() is not None]
            return JobResult(job_id=self.job_id, status=status,
                             error=str(errors[0]))
        if status == "expired":
            pending = sum(1 for f in self.futures if not f.done())
            return JobResult(
                job_id=self.job_id, status=status,
                error=(f"deadline of {self.deadline:g}s exceeded with "
                       f"{pending} of {len(self.futures)} spec(s) "
                       "unresolved; the simulations continue and "
                       "will be cached for a resubmission"))
        return JobResult(job_id=self.job_id, status=status)


class JobStore:
    """Bounded id -> :class:`Job` map.

    Finished jobs are retained for late polls and evicted oldest-first
    past ``limit``, preferring jobs whose terminal snapshot was
    already served — a just-finished, never-polled job survives a
    burst of other submissions.  The bound is made *real* by refusing
    new jobs while ``limit`` jobs are still running (the server maps
    :class:`JobStoreFull` to HTTP 429) — running jobs are never
    evicted, so without the refusal the map could grow unboundedly.
    The jobs not yet seen finished are indexed apart, so counting the
    running ones looks at those alone.
    """

    def __init__(self, limit: int = 256):
        self.limit = limit
        self._jobs: dict[str, Job] = {}
        self._unfinished: dict[str, Job] = {}

    def running(self) -> int:
        for job_id, job in list(self._unfinished.items()):
            if job.done:  # a job never leaves done
                del self._unfinished[job_id]
        return len(self._unfinished)

    def ensure_capacity(self) -> None:
        """Raise :class:`JobStoreFull` at the running-jobs limit.

        The server calls this *before* submitting specs to the
        scheduler, so a refused submission never leaves orphaned
        futures behind; ``add`` re-checks as a belt-and-braces guard.
        """
        if self.running() >= self.limit:
            raise JobStoreFull(
                f"{self.limit} jobs already running; retry once some "
                f"finish")

    def add(self, job: Job) -> None:
        self.ensure_capacity()
        self._jobs[job.job_id] = job
        if not job.done:
            self._unfinished[job.job_id] = job
        for evictable in (lambda j: j.done and j.served,
                          lambda j: j.done):
            excess = len(self._jobs) - self.limit
            if excess <= 0:
                break
            # oldest first, and the scan stops at the excess-th match
            oldest = (job_id for job_id, old in self._jobs.items()
                      if evictable(old))
            for job_id in list(itertools.islice(oldest, excess)):
                del self._jobs[job_id]
                self._unfinished.pop(job_id, None)

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def __len__(self) -> int:
        return len(self._jobs)


class JobStoreFull(RuntimeError):
    """Raised by :meth:`JobStore.add` at the running-jobs limit."""
