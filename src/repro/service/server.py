"""Stdlib-asyncio HTTP server exposing the engine as a job service.

No third-party dependencies: requests are parsed straight off an
``asyncio`` stream (HTTP/1.1, one request per connection).  Endpoints
(all JSON, schema-versioned — see :mod:`repro.service.schema` and
``docs/service.md``):

* ``POST /v1/jobs`` — submit a spec grid or declarative sweep; replies
  ``202`` with the job snapshot (poll it; a job whose specs are all in
  the engine's memo is already ``done``, with its results).
* ``GET /v1/jobs/<id>`` — job status; includes per-spec results once
  ``status == "done"``.
* ``POST /v1/explore`` / ``GET /v1/explore/<id>`` — design-space
  exploration jobs: Pareto-frontier / epsilon-constraint queries over
  performance x power x area, driven through the same batching
  scheduler so candidate batches coalesce with ordinary jobs (see
  ``docs/explore.md``).
* ``GET /v1/results`` — bulk-query the engine's result cache by spec
  fields (``?benchmark=...&memsys=...&limit=...``); analytics over
  accumulated runs without resimulating anything.
* ``GET /v1/health`` — liveness probe.
* ``GET /v1/stats`` — engine counters (simulations / hits / stores /
  dispatches), execution-backend counters, scheduler coalescing
  counters, and result-cache occupancy.
* ``GET /v1/metrics`` — the same signals (plus latency histograms,
  queue depth, lease ages and fleet health) as a Prometheus text
  exposition; the one non-JSON endpoint.  Series catalog in
  ``docs/service.md``.
* ``POST /v1/work/lease`` / ``POST /v1/work/complete`` — the pull
  protocol for ``repro worker`` processes, available when the engine
  runs the remote execution backend (``repro serve --backend
  remote``); see ``docs/backends.md``.

Every non-2xx body is a structured :class:`ErrorReply` — client
payload mistakes come back as 4xx with per-field errors, never as a
traceback.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import math
import signal
import sys
import threading
import time
import urllib.parse
from typing import Awaitable, Callable

from concurrent.futures import ThreadPoolExecutor

from repro.engine import Engine
from repro.engine.backends.workqueue import WorkQueue, WorkQueueError
from repro.explore import Exploration
from repro.service.admission import (
    AdmissionController,
    QuotaExceeded,
    instrument_admission,
)
from repro.service.metrics import (
    LATENCY_BUCKETS,
    Metrics,
    instrument_engine,
    instrument_work_queue,
)
from repro.service.scheduler import (
    BatchScheduler,
    ExploreJob,
    Job,
    JobStore,
    JobStoreFull,
)
from repro.service.schema import (
    MAX_GRID,
    SCHEMA_VERSION,
    CacheQueryReply,
    ErrorReply,
    JobRequest,
    SchemaError,
    WorkCompletion,
    WorkLeaseGrant,
    explore_query_from_wire,
    work_lease_request_from_wire,
)

_MAX_BODY = 8 << 20  # 8 MiB of JSON is far beyond any real grid
_MAX_HEADERS = 100  # stdlib http.client sends a handful
#: Seconds a client gets to deliver its complete request.  Bounds the
#: damage of idle/trickling connections; responses are not limited
#: (jobs are polled, so replies are always immediate).
_REQUEST_TIMEOUT = 30.0

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}


class _HttpReply(Exception):
    """Internal control flow: abort the handler with this reply.

    ``headers`` carries extra response headers (``Retry-After`` on
    throttled/draining refusals) onto the wire.
    """

    def __init__(self, status: int, reply: ErrorReply,
                 headers: dict[str, str] | None = None):
        self.status = status
        self.reply = reply
        self.headers = dict(headers or {})
        super().__init__(reply.message)


class ServiceServer:
    """The job service: one engine, one scheduler, one HTTP listener."""

    def __init__(self, engine: Engine | None = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 window: float = 0.02, max_batch: int = 64,
                 max_workers: int = 2, max_jobs: int = 256,
                 metrics: Metrics | None = None,
                 admission: AdmissionController | None = None,
                 drain_grace: float = 30.0):
        self.engine = engine if engine is not None else Engine()
        self.host = host
        self.port = port
        #: the registry behind ``GET /v1/metrics``; a fresh one per
        #: server unless the caller shares its own (two servers on
        #: one registry would collide on the scheduler series)
        self.metrics = metrics if metrics is not None else Metrics()
        instrument_engine(self.metrics, self.engine)
        queue = getattr(self.engine.backend, "queue", None)
        if isinstance(queue, WorkQueue):
            instrument_work_queue(self.metrics, queue)
        self.scheduler = BatchScheduler(self.engine, window=window,
                                        max_batch=max_batch,
                                        max_workers=max_workers,
                                        metrics=self.metrics)
        self.jobs = JobStore(limit=max_jobs)
        self.admission = (admission if admission is not None
                          else AdmissionController())
        if self.admission.enabled:
            instrument_admission(self.metrics, self.admission)
        #: graceful-shutdown state: once :meth:`drain` flips
        #: ``draining``, submissions get 503 and workers get no new
        #: leases while in-flight jobs run down within ``drain_grace``
        #: seconds
        self.drain_grace = drain_grace
        self.draining = False
        self.metrics.gauge(
            "repro_server_draining",
            "1 once SIGTERM drain has begun (no new jobs or leases)",
            fn=lambda: 1.0 if self.draining else 0.0)
        # the autoscale supervisor's latest self-report (POST
        # /v1/supervisor/report) backing the repro_supervisor_* series
        self._supervisor: dict = {}
        self._supervisor_stamp: float | None = None
        self._bind_supervisor_metrics()
        self._server: asyncio.AbstractServer | None = None
        # fleet health: the latest cumulative counter report each
        # worker attached to a lease poll or completion (additive
        # wire field, absent from older workers)
        self._fleet: dict[str, dict] = {}
        self._bind_fleet_metrics()
        # exploration drivers block on scheduler futures while the
        # scheduler's own executor resolves their batches, so they
        # need their own threads (sharing the batch executor would
        # deadlock once max_workers explorations are in flight)
        self._explore_executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-explore")
        self._explore_jobs: list[ExploreJob] = []
        # terminal explorations folded into monotonic totals (the
        # JobStore evicts finished jobs, the counters must not rewind)
        self._explore_totals = {
            "jobs": 0, "failed": 0, "candidates_evaluated": 0,
            "candidates_pruned": 0, "specs_requested": 0,
            "specs_saved": 0, "last_frontier_size": 0,
        }
        self._bind_explore_metrics()

    def _bind_fleet_metrics(self) -> None:
        fleet = self._fleet

        def fleet_sum(key: str) -> float:
            return float(sum(report.get(key, 0) or 0
                             for report in fleet.values()))

        self.metrics.gauge(
            "repro_fleet_workers",
            "Distinct workers that have reported in since this server "
            "started", fn=lambda: len(fleet))
        self.metrics.gauge(
            "repro_fleet_failed_shards",
            "Leased shards whose simulation raised worker-side "
            "(summed over the fleet's reports)",
            fn=lambda: fleet_sum("failed_shards"))
        self.metrics.gauge(
            "repro_fleet_worker_errors",
            "Transient errors survived worker-side (summed over the "
            "fleet's reports)", fn=lambda: fleet_sum("errors"))
        self.metrics.gauge(
            "repro_fleet_busy_seconds",
            "Wall seconds the fleet spent simulating shards (summed "
            "over the fleet's reports)",
            fn=lambda: fleet_sum("busy_seconds"))
        self._shard_seconds = self.metrics.histogram(
            "repro_worker_shard_seconds",
            "Worker-reported wall time per completed shard.",
            buckets=LATENCY_BUCKETS)

    def _bind_supervisor_metrics(self) -> None:
        def field(key: str) -> float:
            return float(self._supervisor.get(key, 0) or 0)

        self.metrics.gauge(
            "repro_supervisor_workers",
            "Live workers under the autoscale supervisor (its last "
            "report)", fn=lambda: field("workers"))
        self.metrics.gauge(
            "repro_supervisor_target",
            "Worker count the supervisor is currently steering toward",
            fn=lambda: field("target"))
        self.metrics.counter(
            "repro_supervisor_spawned_total",
            "Workers the supervisor has spawned (scale-ups plus "
            "restarts)", fn=lambda: field("spawned"))
        self.metrics.counter(
            "repro_supervisor_restarts_total",
            "Crashed workers the supervisor restarted",
            fn=lambda: field("restarts"))
        self.metrics.counter(
            "repro_supervisor_retired_total",
            "Workers retired on scale-down",
            fn=lambda: field("retired"))
        self.metrics.gauge(
            "repro_supervisor_report_age_seconds",
            "Seconds since the supervisor last reported in (0 when it "
            "never has)",
            fn=lambda: (0.0 if self._supervisor_stamp is None
                        else max(0.0, time.monotonic()
                                 - self._supervisor_stamp)))

    def _bind_explore_metrics(self) -> None:
        totals = self._explore_totals
        jobs = self._explore_jobs
        for key, help_text in (
                ("jobs", "Exploration jobs finished"),
                ("failed", "Exploration jobs that failed"),
                ("candidates_evaluated",
                 "Candidates fully evaluated by finished explorations"),
                ("candidates_pruned",
                 "Candidates killed at a halving rung before full "
                 "evaluation"),
                ("specs_requested",
                 "Specs exploration drivers asked the scheduler for"),
                ("specs_saved",
                 "Specs saved versus exhaustively sweeping the "
                 "declared spaces")):
            self.metrics.counter(f"repro_explore_{key}_total",
                                 help_text,
                                 fn=lambda k=key: totals[k])
        self.metrics.gauge(
            "repro_explore_running", "Exploration jobs in flight",
            fn=lambda: sum(1 for job in jobs if not job.done))
        self.metrics.gauge(
            "repro_explore_last_frontier_size",
            "Frontier size of the most recently finished exploration",
            fn=lambda: totals["last_frontier_size"])

    def _fold_explore(self, job: ExploreJob) -> None:
        """Move one finished exploration into the monotonic totals."""
        totals = self._explore_totals
        totals["jobs"] += 1
        if job.status() == "failed":
            totals["failed"] += 1
        stats = job.exploration.stats
        totals["candidates_evaluated"] += stats.candidates_evaluated
        totals["candidates_pruned"] += stats.candidates_pruned
        totals["specs_requested"] += stats.specs_requested
        totals["specs_saved"] += stats.specs_saved
        totals["last_frontier_size"] = stats.frontier_size
        self._explore_jobs[:] = [j for j in self._explore_jobs
                                 if not j.done]

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the batch dispatcher."""
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def drain(self, grace: float | None = None) -> bool:
        """Graceful rundown: refuse new work, land what's in flight.

        Flips :attr:`draining` (submissions 503, lease polls come back
        empty), waits up to ``grace`` seconds for running jobs,
        explorations and leased shards to finish — completions are
        still accepted throughout — then flushes the result cache so
        nothing already computed is lost.  Returns ``True`` when
        everything landed inside the grace period, ``False`` when work
        had to be abandoned.
        """
        grace = self.drain_grace if grace is None else grace
        self.draining = True
        deadline = time.monotonic() + max(0.0, grace)
        queue = getattr(self.engine.backend, "queue", None)

        def busy() -> bool:
            if self.jobs.running():
                return True
            if any(not job.done for job in self._explore_jobs):
                return True
            if isinstance(queue, WorkQueue):
                return bool(queue.counters()["leased_shards"])
            return False

        clean = True
        while busy():
            if time.monotonic() >= deadline:
                clean = False
                break
            await asyncio.sleep(0.05)
        cache = self.engine.cache
        if cache is not None:
            with contextlib.suppress(OSError):
                cache.flush()
        return clean

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # closing the scheduler fails any futures in-flight
        # explorations are blocked on, so their threads unwind before
        # the (non-waiting) executor shutdown below
        await self.scheduler.close()
        self._explore_executor.shutdown(wait=False,
                                        cancel_futures=True)

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        extra_headers: dict[str, str] = {}
        try:
            status, payload = await asyncio.wait_for(
                self._handle_request(reader), _REQUEST_TIMEOUT)
        except asyncio.TimeoutError:
            status = 400
            payload = ErrorReply(
                code="bad-request",
                message=f"request not delivered within "
                        f"{_REQUEST_TIMEOUT:.0f}s").to_wire()
        except _HttpReply as stop:
            status, payload = stop.status, stop.reply.to_wire()
            extra_headers = stop.headers
        except (ValueError, asyncio.IncompleteReadError):
            # over-long header/request line or a truncated body
            status = 400
            payload = ErrorReply(code="bad-request",
                                 message="malformed request").to_wire()
        except Exception as exc:  # noqa: BLE001 - boundary: no tracebacks
            print(f"[service] internal error: {exc!r}", file=sys.stderr)
            status = 500
            payload = ErrorReply(code="internal-error",
                                 message="internal server error"
                                 ).to_wire()
        if isinstance(payload, str):  # /v1/metrics text exposition
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        extras = "".join(f"{name}: {value}\r\n"
                         for name, value in extra_headers.items())
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{extras}"
                f"Connection: close\r\n\r\n").encode("ascii")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handle_request(self, reader: asyncio.StreamReader
                              ) -> tuple[int, dict | str]:
        request_line = (await reader.readline()).decode(
            "ascii", "replace").strip()
        if not request_line:
            raise _HttpReply(400, ErrorReply(
                code="bad-request", message="empty request"))
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpReply(400, ErrorReply(
                code="bad-request",
                message=f"malformed request line {request_line!r}"))
        method, target, _version = parts
        headers = {}
        while True:
            if len(headers) > _MAX_HEADERS:
                raise _HttpReply(400, ErrorReply(
                    code="bad-request",
                    message=f"more than {_MAX_HEADERS} headers"))
            line = (await reader.readline()).decode("ascii",
                                                    "replace").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_path, _, query_string = target.partition("?")
        path = raw_path.rstrip("/") or "/"
        query = {}
        for key, values in urllib.parse.parse_qs(
                query_string, keep_blank_values=True).items():
            query[key] = values[-1]
        body = await self._read_body(reader, headers)
        return await self._route(method.upper(), path, body, query,
                                 headers)

    async def _read_body(self, reader: asyncio.StreamReader,
                         headers: dict) -> bytes:
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpReply(400, ErrorReply(
                code="bad-request",
                message="unreadable Content-Length")) from None
        if length < 0:
            raise _HttpReply(400, ErrorReply(
                code="bad-request",
                message="negative Content-Length"))
        if length > _MAX_BODY:
            raise _HttpReply(413, ErrorReply(
                code="payload-too-large",
                message=f"body exceeds {_MAX_BODY} bytes"))
        return await reader.readexactly(length) if length else b""

    async def _route(self, method: str, path: str, body: bytes,
                     query: dict | None = None,
                     headers: dict | None = None
                     ) -> tuple[int, dict | str]:
        query = query or {}
        headers = headers or {}
        if path == "/v1/jobs":
            self._require_method(method, "POST", path)
            return await self._post_job(body, headers)
        if path.startswith("/v1/jobs/"):
            self._require_method(method, "GET", path)
            return self._get_job(path[len("/v1/jobs/"):])
        if path == "/v1/explore":
            self._require_method(method, "POST", path)
            return await self._post_explore(body, headers)
        if path.startswith("/v1/explore/"):
            self._require_method(method, "GET", path)
            return self._get_explore(path[len("/v1/explore/"):])
        if path == "/v1/work/lease":
            self._require_method(method, "POST", path)
            return self._post_work_lease(body)
        if path == "/v1/work/complete":
            self._require_method(method, "POST", path)
            return self._post_work_complete(body)
        if path == "/v1/supervisor/report":
            self._require_method(method, "POST", path)
            return self._post_supervisor_report(body)
        if path == "/v1/results":
            self._require_method(method, "GET", path)
            return await self._get_results(query)
        if path == "/v1/health":
            self._require_method(method, "GET", path)
            return 200, {"schema_version": SCHEMA_VERSION,
                         "status": "ok"}
        if path == "/v1/stats":
            self._require_method(method, "GET", path)
            return 200, self._stats_payload()
        if path == "/v1/metrics":
            self._require_method(method, "GET", path)
            return 200, self.metrics.render()
        raise _HttpReply(404, ErrorReply(
            code="not-found", message=f"no such endpoint {path!r}"))

    def _require_method(self, method: str, expected: str,
                        path: str) -> None:
        if method != expected:
            raise _HttpReply(405, ErrorReply(
                code="method-not-allowed",
                message=f"{path} only accepts {expected}"))

    # -- endpoints ---------------------------------------------------------

    @staticmethod
    def _parse_json(body: bytes) -> dict:
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpReply(400, ErrorReply(
                code="bad-json",
                message=f"request body is not valid JSON: {exc}"
            )) from None

    @staticmethod
    def _client_identity(headers: dict) -> str | None:
        """Who is submitting: ``X-Repro-Client``, else bearer token."""
        client = headers.get("x-repro-client", "").strip()
        if client:
            return client
        auth = headers.get("authorization", "")
        scheme, _, token = auth.partition(" ")
        if scheme.lower() == "bearer" and token.strip():
            return token.strip()
        return None

    def _admit(self, headers: dict, specs: int) -> None:
        """Charge admission quotas; 429 + ``Retry-After`` on refusal."""
        try:
            self.admission.admit(self._client_identity(headers), specs)
        except QuotaExceeded as exc:
            raise _HttpReply(
                429,
                ErrorReply(code="quota-exceeded", message=str(exc)),
                headers={"Retry-After":
                         str(max(1, math.ceil(exc.retry_after)))},
            ) from None

    def _refuse_when_draining(self) -> None:
        if self.draining:
            raise _HttpReply(
                503,
                ErrorReply(code="draining",
                           message="server is draining for shutdown; "
                                   "resubmit elsewhere or retry later"),
                headers={"Retry-After":
                         str(max(1, math.ceil(self.drain_grace)))})

    async def _post_job(self, body: bytes,
                        headers: dict | None = None) -> tuple[int, dict]:
        self._refuse_when_draining()
        payload = self._parse_json(body)
        try:
            request = JobRequest.from_wire(payload)
        except SchemaError as exc:
            raise _HttpReply(
                400, ErrorReply.from_schema_error(exc)) from None
        self._admit(headers or {}, len(request.specs))
        # check capacity before queueing anything on the scheduler
        try:
            self.jobs.ensure_capacity()
        except JobStoreFull as exc:
            raise _HttpReply(429, ErrorReply(
                code="too-many-jobs", message=str(exc))) from None
        job = Job(request.specs, self.scheduler.submit(request.specs),
                  deadline=request.deadline)
        self.jobs.add(job)
        snapshot = job.snapshot()
        if snapshot.status != "running":  # results delivered inline
            job.served = True
        return 202, snapshot.to_wire()

    def _get_job(self, job_id: str) -> tuple[int, dict]:
        job = self.jobs.get(job_id)
        if job is None:
            raise _HttpReply(404, ErrorReply(
                code="unknown-job", message=f"no job {job_id!r}"))
        if isinstance(job, ExploreJob):
            raise _HttpReply(404, ErrorReply(
                code="wrong-endpoint",
                message=f"{job_id!r} is an exploration job; poll "
                        f"GET /v1/explore/{job_id}"))
        snapshot = job.snapshot()
        if snapshot.status != "running":
            job.served = True
        return 200, snapshot.to_wire()

    # -- design-space exploration ------------------------------------------

    async def _post_explore(self, body: bytes,
                            headers: dict | None = None
                            ) -> tuple[int, dict]:
        self._refuse_when_draining()
        payload = self._parse_json(body)
        try:
            query = explore_query_from_wire(payload)
        except SchemaError as exc:
            raise _HttpReply(
                400, ErrorReply.from_schema_error(exc)) from None
        # charge the request-rate bucket; an exploration's true spec
        # volume is adaptive (halving rungs), so it is accounted as a
        # single submission rather than a grid
        self._admit(headers or {}, 1)
        try:
            self.jobs.ensure_capacity()
        except JobStoreFull as exc:
            raise _HttpReply(429, ErrorReply(
                code="too-many-jobs", message=str(exc))) from None
        loop = asyncio.get_running_loop()
        exploration = Exploration(query)

        def evaluate(specs):
            # called from the explore executor thread: hop the
            # candidate batch onto the event loop's scheduler so it
            # coalesces (and dedups) with ordinary jobs, then block
            # this thread until the batch resolves
            handle = asyncio.run_coroutine_threadsafe(
                self.scheduler.run_specs(specs), loop)
            return dict(zip(specs, handle.result()))

        future = loop.run_in_executor(self._explore_executor,
                                      exploration.run, evaluate)
        job = ExploreJob(exploration, future)
        self._explore_jobs.append(job)
        future.add_done_callback(
            lambda _f, j=job: self._fold_explore(j))
        self.jobs.add(job)
        return 202, job.snapshot().to_wire()

    def _get_explore(self, job_id: str) -> tuple[int, dict]:
        job = self.jobs.get(job_id)
        if job is None:
            raise _HttpReply(404, ErrorReply(
                code="unknown-job", message=f"no job {job_id!r}"))
        if not isinstance(job, ExploreJob):
            raise _HttpReply(404, ErrorReply(
                code="wrong-endpoint",
                message=f"{job_id!r} is not an exploration job; poll "
                        f"GET /v1/jobs/{job_id}"))
        snapshot = job.snapshot()
        if snapshot.status != "running":
            job.served = True
        return 200, snapshot.to_wire()

    # -- the worker pull protocol (remote execution backend) ---------------

    def _work_queue(self) -> WorkQueue:
        """The engine backend's lease queue, or a structured 404.

        Only the remote backend exposes one; polling a service whose
        engine executes locally is a configuration mistake a worker
        should fail fast on.
        """
        queue = getattr(self.engine.backend, "queue", None)
        if not isinstance(queue, WorkQueue):
            raise _HttpReply(404, ErrorReply(
                code="no-work-queue",
                message=f"this server's engine runs the "
                        f"{self.engine.backend.name!r} backend; only "
                        f"'repro serve --backend remote' serves "
                        f"workers"))
        return queue

    def _note_report(self, worker_id: str,
                     report: dict | None) -> None:
        """Fold one worker's cumulative counters into fleet health."""
        if report is not None:
            self._fleet[worker_id] = report

    def _post_work_lease(self, body: bytes) -> tuple[int, dict]:
        queue = self._work_queue()
        try:
            worker_id, report = work_lease_request_from_wire(
                self._parse_json(body))
        except SchemaError as exc:
            raise _HttpReply(
                400, ErrorReply.from_schema_error(exc)) from None
        self._note_report(worker_id, report)
        # a draining server stops handing out work but keeps taking
        # completions, so in-flight shards land before shutdown
        lease = None if self.draining else queue.lease(worker_id)
        grant = None
        if lease is not None:
            grant = WorkLeaseGrant(
                lease_id=lease.lease_id, shard_id=lease.shard.shard_id,
                ttl=lease.ttl, specs=lease.shard.specs,
                grid_mode=lease.shard.grid_mode).to_wire()
        return 200, {"schema_version": SCHEMA_VERSION, "lease": grant}

    def _post_work_complete(self, body: bytes) -> tuple[int, dict]:
        queue = self._work_queue()
        try:
            completion = WorkCompletion.from_wire(self._parse_json(body))
        except SchemaError as exc:
            raise _HttpReply(
                400, ErrorReply.from_schema_error(exc)) from None
        self._note_report(completion.worker_id,
                          dict(completion.report)
                          if completion.report is not None else None)
        if completion.elapsed is not None:
            self._shard_seconds.observe(completion.elapsed)
        try:
            fresh, duplicate = queue.complete(
                completion.shard_id, completion.lease_id,
                dict(completion.results))
        except WorkQueueError as exc:
            raise _HttpReply(400, ErrorReply(
                code="invalid-work", message=str(exc))) from None
        return 200, {"schema_version": SCHEMA_VERSION, "accepted": True,
                     "fresh": fresh, "duplicate": duplicate}

    def _post_supervisor_report(self, body: bytes) -> tuple[int, dict]:
        """``POST /v1/supervisor/report``: the autoscaler's heartbeat.

        The supervisor pushes its cumulative counters (workers, target,
        spawned, restarts, retired, sweeps) so fleet dashboards see the
        control loop through this server's ``repro_supervisor_*``
        series without scraping a second process.
        """
        payload = self._parse_json(body)
        if not isinstance(payload, dict):
            raise _HttpReply(400, ErrorReply(
                code="bad-request",
                message="supervisor report must be a JSON object"))
        report = payload.get("report")
        if not isinstance(report, dict):
            raise _HttpReply(400, ErrorReply(
                code="bad-request",
                message="supervisor report needs a 'report' object"))
        self._supervisor = report
        self._supervisor_stamp = time.monotonic()
        return 200, {"schema_version": SCHEMA_VERSION,
                     "accepted": True, "draining": self.draining}

    async def _get_results(self, query: dict) -> tuple[int, dict]:
        """``GET /v1/results``: bulk-scan the engine's result cache.

        The parameters are checked on the event loop; the scan reads
        every stored record, so it runs on a thread and the loop keeps
        answering other requests meanwhile (the store is thread-safe).
        """
        cache = self.engine.cache
        if cache is None:
            raise _HttpReply(404, ErrorReply(
                code="no-cache",
                message="this server's engine runs without a result "
                        "cache; nothing to query"))
        allowed = {"benchmark", "coding", "memsys", "l2_latency",
                   "warm", "seed", "version", "limit"}
        unknown = sorted(set(query) - allowed)
        if unknown:
            raise _HttpReply(400, ErrorReply(
                code="bad-query",
                message=f"unknown query parameter(s) {unknown}; "
                        f"expected a subset of {sorted(allowed)}"))
        filters: dict = {}
        for name in ("benchmark", "coding", "memsys", "version"):
            if name in query:
                filters[name] = query[name]
        for name in ("l2_latency", "seed"):
            if name in query:
                try:
                    filters[name] = int(query[name])
                except ValueError:
                    raise _HttpReply(400, ErrorReply(
                        code="bad-query",
                        message=f"{name} must be an integer, got "
                                f"{query[name]!r}")) from None
        if "warm" in query:
            flag = query["warm"].lower()
            if flag in ("true", "1"):
                filters["warm"] = True
            elif flag in ("false", "0"):
                filters["warm"] = False
            else:
                raise _HttpReply(400, ErrorReply(
                    code="bad-query",
                    message=f"warm must be true/false, got "
                            f"{query['warm']!r}"))
        limit = MAX_GRID
        if "limit" in query:
            try:
                limit = int(query["limit"])
            except ValueError:
                raise _HttpReply(400, ErrorReply(
                    code="bad-query",
                    message=f"limit must be an integer, got "
                            f"{query['limit']!r}")) from None
            if limit <= 0:
                raise _HttpReply(400, ErrorReply(
                    code="bad-query",
                    message=f"limit must be positive, got {limit}"))
            limit = min(limit, MAX_GRID)
        version = filters.pop("version", None)
        rows = await asyncio.get_running_loop().run_in_executor(
            None, functools.partial(cache.query, version=version,
                                    limit=limit + 1, **filters))
        truncated = len(rows) > limit
        reply = CacheQueryReply(
            version=version or cache.version, layout=cache.layout,
            truncated=truncated, results=tuple(rows[:limit]))
        return 200, reply.to_wire()

    def _stats_payload(self) -> dict:
        cache = self.engine.cache
        backend = self.engine.backend
        return {
            "schema_version": SCHEMA_VERSION,
            "draining": self.draining,
            "engine": self.engine.stats.to_dict(),
            "backend": {"name": backend.name, **backend.counters()},
            "scheduler": self.scheduler.stats.to_dict(),
            "admission": self.admission.stats(),
            "supervisor": dict(self._supervisor),
            "explore": {
                **self._explore_totals,
                "running": sum(1 for job in self._explore_jobs
                               if not job.done),
            },
            "cache": {
                "enabled": cache is not None,
                "entries": len(cache) if cache is not None else 0,
                "version": cache.version if cache is not None else None,
                "root": str(cache.root) if cache is not None else None,
                **({"layout": cache.layout,
                    **{k: v for k, v in cache.store_metrics().items()
                       if k != "layout"}}
                   if cache is not None
                   else {"layout": None, "bytes": 0, "segments": 0}),
            },
        }


def serve(engine: Engine | None = None, *, host: str = "127.0.0.1",
          port: int = 8737, window: float = 0.02, max_batch: int = 64,
          max_workers: int = 2, max_jobs: int = 256,
          quota_requests: float = 0, quota_specs: float = 0,
          drain_grace: float = 30.0,
          announce: Callable[[str], None] | None = None) -> None:
    """Blocking entry point (the ``repro serve`` subcommand).

    SIGTERM triggers a graceful drain: new submissions get 503 and
    lease polls come back empty while in-flight work runs down (up to
    ``drain_grace`` seconds), the result cache is flushed, and the
    process exits 0.  SIGINT stays an immediate stop.
    """

    async def _main() -> None:
        admission = AdmissionController(
            requests_per_minute=quota_requests,
            specs_per_minute=quota_specs)
        server = ServiceServer(engine, host=host, port=port,
                               window=window, max_batch=max_batch,
                               max_workers=max_workers,
                               max_jobs=max_jobs, admission=admission,
                               drain_grace=drain_grace)
        await server.start()
        if announce is not None:
            announce(server.url)
        loop = asyncio.get_running_loop()
        stopped = asyncio.Event()

        async def _drain_then_stop() -> None:
            clean = await server.drain()
            state = "cleanly" if clean else "with work abandoned"
            print(f"[service] drained {state}; shutting down",
                  file=sys.stderr)
            stopped.set()

        def _on_sigterm() -> None:
            if not server.draining:
                loop.create_task(_drain_then_stop())

        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signal.SIGTERM, _on_sigterm)
        serve_task = asyncio.create_task(server.serve_forever())
        stop_task = asyncio.create_task(stopped.wait())
        try:
            await asyncio.wait({serve_task, stop_task},
                               return_when=asyncio.FIRST_COMPLETED)
        finally:
            for task in (serve_task, stop_task):
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
            await server.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


@contextlib.contextmanager
def background_server(engine: Engine | None = None, *,
                      host: str = "127.0.0.1", port: int = 0,
                      window: float = 0.02, max_batch: int = 64,
                      max_workers: int = 2, max_jobs: int = 256,
                      metrics: Metrics | None = None,
                      admission: AdmissionController | None = None,
                      drain_grace: float = 30.0):
    """Run a server on a daemon thread; yields the started server.

    The event loop lives on the thread; the caller gets the bound
    ``server.url`` for a :class:`~repro.service.client.ServiceClient`.
    Every :class:`ServiceServer` knob plumbs through — ``max_jobs``
    included, so admission-control tests exercise the same 429 path a
    foreground ``serve`` enforces.  Used by the tests, the examples
    and the CI smoke job.
    """
    started = threading.Event()
    stop: dict = {}
    failure: list[BaseException] = []

    async def _main() -> None:
        server = ServiceServer(engine, host=host, port=port,
                               window=window, max_batch=max_batch,
                               max_workers=max_workers,
                               max_jobs=max_jobs, metrics=metrics,
                               admission=admission,
                               drain_grace=drain_grace)
        try:
            await server.start()
        except BaseException as exc:  # propagate bind errors to caller
            failure.append(exc)
            started.set()
            await server.close()
            return
        stop["server"] = server
        stop["loop"] = asyncio.get_running_loop()
        stop["event"] = asyncio.Event()
        started.set()
        try:
            await stop["event"].wait()
        finally:
            await server.close()

    thread = threading.Thread(target=lambda: asyncio.run(_main()),
                              name="repro-service", daemon=True)
    thread.start()
    started.wait()
    if failure:
        raise failure[0]
    try:
        yield stop["server"]
    finally:
        stop["loop"].call_soon_threadsafe(stop["event"].set)
        thread.join(timeout=10)
