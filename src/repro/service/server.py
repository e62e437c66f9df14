"""Stdlib-asyncio HTTP server exposing the engine as a job service.

No third-party dependencies: requests are parsed straight off an
``asyncio`` stream.  Connections are HTTP/1.1 persistent: one serves
request after request until the client asks to close, a reply must
close it (a request not read to its end), or it sits idle for
``_IDLE_TIMEOUT`` seconds.  Endpoints (all JSON, schema-versioned —
see :mod:`repro.service.schema` and ``docs/service.md``):

* ``POST /v1/jobs`` — submit a spec grid or declarative sweep; replies
  ``202`` with the job snapshot (poll it; a job whose specs are all in
  the engine's memo is already ``done``, with its results).
* ``GET /v1/jobs/<id>`` — job status; includes per-spec results once
  ``status == "done"``.
* ``GET /v1/results`` — bulk-query the engine's result cache by spec
  fields (``?benchmark=...&memsys=...&limit=...``); analytics over
  accumulated runs without resimulating anything.
* ``GET /v1/health`` — liveness probe.
* ``GET /v1/stats`` — engine counters (simulations / hits / stores /
  dispatches), execution-backend counters, scheduler dedup and
  dispatch counters, and result-cache occupancy.
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

from repro.engine import Engine
from repro.engine.backends.workqueue import WorkQueue, WorkQueueError
from repro.service.metrics import (
    LATENCY_BUCKETS,
    Metrics,
    instrument_engine,
    instrument_work_queue,
)
from repro.service.scheduler import BatchScheduler, Job, JobStore, JobStoreFull
from repro.service.schema import (
    MAX_GRID,
    SCHEMA_VERSION,
    CacheQueryReply,
    ErrorReply,
    JobRequest,
    SchemaError,
    WorkCompletion,
    WorkLeaseGrant,
    work_lease_request_from_wire,
)

_MAX_BODY = 8 << 20  # 8 MiB of JSON is far beyond any real grid
_MAX_HEADERS = 100  # stdlib http.client sends a handful
#: Seconds a client gets to deliver the rest of a request once its
#: request line has arrived.  Bounds the damage of trickling
#: connections; responses are not limited (jobs are polled, so replies
#: are always immediate).
_REQUEST_TIMEOUT = 30.0
#: Seconds a connection may wait for its next request line; past it the
#: server closes the connection without a reply.
_IDLE_TIMEOUT = 15.0

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}


class _HttpReply(Exception):
    """Internal control flow: abort the handler with this reply.

    ``headers`` carries extra response headers (``Retry-After`` on
    the drain's refusals) onto the wire.
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
                 max_workers: int = 2, max_jobs: int = 256,
                 metrics: Metrics | None = None,
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
        self.scheduler = BatchScheduler(self.engine, max_workers=max_workers,
                                        metrics=self.metrics)
        self.jobs = JobStore(limit=max_jobs)
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
        self._server: asyncio.AbstractServer | None = None
        # open connections -> True while one waits for its next
        # request; drain/close shut the waiting ones, and once
        # ``_closing`` is set a busy one closes after its reply
        self._connections: dict[asyncio.StreamWriter, bool] = {}
        self._closing = False
        # fleet health: the latest cumulative counter report each
        # worker attached to a lease poll or completion (additive
        # wire field, absent from older workers)
        self._fleet: dict[str, dict] = {}
        self._bind_fleet_metrics()

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

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def drain(self, grace: float | None = None) -> bool:
        """Graceful rundown: refuse new work, land what's in flight.

        Flips :attr:`draining` (submissions 503, lease polls come back
        empty), waits up to ``grace`` seconds for running jobs and
        leased shards to finish — completions are still accepted
        throughout, and the result store writes each admitted result
        to its segment file as it appends — then closes the
        connections waiting idle for a next request.
        Returns ``True`` when everything landed inside the grace
        period, ``False`` when work had to be abandoned.
        """
        grace = self.drain_grace if grace is None else grace
        self.draining = True
        deadline = time.monotonic() + max(0.0, grace)
        queue = getattr(self.engine.backend, "queue", None)

        def busy() -> bool:
            if self.jobs.running():
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
        self._close_idle()
        return clean

    def _close_idle(self) -> None:
        for writer, idle in list(self._connections.items()):
            if idle:
                writer.close()

    async def close(self) -> None:
        if self._server is not None:
            # stop listening and shut the idle connections; a busy one
            # closes after its reply.  From Python 3.12 ``wait_closed``
            # waits for every open connection to go; before it, wait
            # for their handlers here, or ``asyncio.run`` cancels them
            # mid-close and logs each cancellation.
            self._closing = True
            self._server.close()
            self._close_idle()
            await self._server.wait_closed()
            while self._connections:
                await asyncio.sleep(0.01)
            self._server = None
        await self.scheduler.close()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections[writer] = True
        try:
            while await self._exchange(reader, writer):
                self._connections[writer] = True
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            del self._connections[writer]

    async def _exchange(self, reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter) -> bool:
        """Serve the connection's next request; True to keep it open.

        Returns False without a reply once the client has closed the
        connection or sent no request line for ``_IDLE_TIMEOUT``
        seconds.  The reply closes the connection when the request
        asked for that (HTTP/1.0, ``Connection: close``), when the
        server is closing, and when the request was not read to its
        end (framing errors, 413, a header flood, a timeout): its
        leftover bytes would be misread as the next request.
        """
        keep_alive = False
        extra_headers: dict[str, str] = {}
        try:
            try:
                async with asyncio.timeout(_IDLE_TIMEOUT):
                    request_line = await reader.readline()
            except TimeoutError:
                return False
            if not request_line:
                return False
            self._connections[writer] = False
            async with asyncio.timeout(_REQUEST_TIMEOUT):
                method, path, query, body, keep_alive = \
                    await self._read_request(request_line, reader)
            status, payload = await self._route(method, path, body, query)
        except ConnectionError:
            return False
        except TimeoutError:
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
        keep_alive = keep_alive and not self._closing
        extras = "".join(f"{name}: {value}\r\n"
                         for name, value in extra_headers.items())
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{extras}"
                f"Connection: {'keep-alive' if keep_alive else 'close'}"
                f"\r\n\r\n").encode("ascii")
        try:
            writer.write(head + body)
            await writer.drain()
        except ConnectionError:
            return False
        return keep_alive

    async def _read_request(self, request_line: bytes,
                            reader: asyncio.StreamReader) -> tuple:
        """Parse one request after its line: ``(method, path, query,
        body, keep_alive)``, or raise for a 4xx reply."""
        line = request_line.decode("ascii", "replace").strip()
        if not line:
            raise _HttpReply(400, ErrorReply(
                code="bad-request", message="empty request"))
        parts = line.split()
        if len(parts) != 3:
            raise _HttpReply(400, ErrorReply(
                code="bad-request",
                message=f"malformed request line {line!r}"))
        method, target, version = parts
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
        # a chunked body is never read, so its bytes must not be
        # parsed as a next request
        keep_alive = (version == "HTTP/1.1"
                      and "transfer-encoding" not in headers
                      and "close" not in {
                          token.strip().lower() for token in
                          headers.get("connection", "").split(",")})
        return method.upper(), path, query, body, keep_alive

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
                     query: dict | None = None) -> tuple[int, dict | str]:
        query = query or {}
        if path == "/v1/jobs":
            self._require_method(method, "POST", path)
            return await self._post_job(body)
        if path.startswith("/v1/jobs/"):
            self._require_method(method, "GET", path)
            return self._get_job(path[len("/v1/jobs/"):])
        if path == "/v1/work/lease":
            self._require_method(method, "POST", path)
            return self._post_work_lease(body)
        if path == "/v1/work/complete":
            self._require_method(method, "POST", path)
            return self._post_work_complete(body)
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

    def _refuse_when_draining(self) -> None:
        if self.draining:
            raise _HttpReply(
                503,
                ErrorReply(code="draining",
                           message="server is draining for shutdown; "
                                   "resubmit elsewhere or retry later"),
                headers={"Retry-After":
                         str(max(1, math.ceil(self.drain_grace)))})

    async def _post_job(self, body: bytes) -> tuple[int, dict]:
        self._refuse_when_draining()
        payload = self._parse_json(body)
        try:
            request = JobRequest.from_wire(payload)
        except SchemaError as exc:
            raise _HttpReply(
                400, ErrorReply.from_schema_error(exc)) from None
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
                ttl=lease.ttl, specs=lease.shard.specs).to_wire()
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
            version=version or cache.version, truncated=truncated,
            results=tuple(rows[:limit]))
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
            "cache": {
                "enabled": cache is not None,
                "entries": len(cache) if cache is not None else 0,
                "version": cache.version if cache is not None else None,
                "root": str(cache.root) if cache is not None else None,
                **(cache.store_metrics() if cache is not None
                   else {"bytes": 0, "segments": 0}),
            },
        }


def serve(engine: Engine | None = None, *, host: str = "127.0.0.1",
          port: int = 8737, max_workers: int = 2, max_jobs: int = 256,
          drain_grace: float = 30.0,
          announce: Callable[[str], None] | None = None) -> None:
    """Blocking entry point (the ``repro serve`` subcommand).

    SIGTERM triggers a graceful drain: new submissions get 503 and
    lease polls come back empty while in-flight work runs down (up to
    ``drain_grace`` seconds), the result cache is flushed, idle
    connections are closed, and the process exits 0.  SIGINT stays an
    immediate stop.
    """

    async def _main() -> None:
        server = ServiceServer(engine, host=host, port=port,
                               max_workers=max_workers,
                               max_jobs=max_jobs, drain_grace=drain_grace)
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
        try:
            await stopped.wait()
        finally:
            await server.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


@contextlib.contextmanager
def background_server(engine: Engine | None = None, *,
                      host: str = "127.0.0.1", port: int = 0,
                      max_workers: int = 2, max_jobs: int = 256,
                      metrics: Metrics | None = None,
                      drain_grace: float = 30.0):
    """Run a server on a daemon thread; yields the started server.

    The event loop lives on the thread; the caller gets the bound
    ``server.url`` for a :class:`~repro.service.client.ServiceClient`.
    Every :class:`ServiceServer` knob plumbs through — ``max_jobs``
    included, so tests exercise the same ``too-many-jobs`` 429 path a
    foreground ``serve`` enforces.  Used by the tests, the examples
    and the CI smoke job.
    """
    started = threading.Event()
    stop: dict = {}
    failure: list[BaseException] = []

    async def _main() -> None:
        server = ServiceServer(engine, host=host, port=port,
                               max_workers=max_workers,
                               max_jobs=max_jobs, metrics=metrics,
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
