"""Blocking client SDK for the job service.

:class:`ServiceClient` speaks the versioned wire schema over plain
``http.client`` (stdlib; each thread keeps one connection open and
reuses it) and returns the same shapes the in-process engine does:
``run_many`` yields a ``{RunSpec: RunStats}`` dict that is
bit-identical (per ``RunStats.to_dict``) to ``Engine.run_many`` on the
same grid — the service parity test asserts exactly that.

    from repro.service import ServiceClient
    client = ServiceClient("http://127.0.0.1:8737")
    results = client.run_many(sweep.specs())
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from typing import Iterable, Mapping, Sequence

from repro.engine.keys import RunSpec
from repro.engine.sweep import Sweep
from repro.errors import ReproError
from repro.service.schema import (
    SCHEMA_VERSION,
    CacheQueryReply,
    ErrorReply,
    JobRequest,
    JobResult,
    SchemaError,
    WorkCompletion,
    WorkLeaseGrant,
)
from repro.timing.stats import RunStats


def _parse_retry_after(value: str | None) -> float | None:
    """Seconds form of ``Retry-After`` (HTTP-date form unsupported)."""
    if value is None:
        return None
    try:
        seconds = float(value.strip())
    except ValueError:
        return None
    return max(0.0, seconds)


class ServiceError(ReproError):
    """The server answered with a non-2xx reply (or unreadable JSON).

    ``retry_after`` carries the server's ``Retry-After`` hint in
    seconds when one was sent (the drain's 503), else ``None``.
    """

    def __init__(self, status: int, reply: ErrorReply | None,
                 retry_after: float | None = None):
        self.status = status
        self.reply = reply
        self.retry_after = retry_after
        detail = reply.message if reply is not None else "no error body"
        super().__init__(f"HTTP {status}: {detail}")


class ServiceClient:
    """Small blocking SDK over the job endpoints.

    Each thread that uses the client keeps one HTTP/1.1 connection
    open across requests; :meth:`close` closes the calling thread's.
    ``timeout`` is the per-request connect/read timeout (stdlib
    ``http.client`` applies it to both).  A refused or failed request
    raises at once (:class:`ServiceError` carries the server's
    ``Retry-After`` hint); what to do next is the caller's choice.
    ``clock`` and ``sleep`` are injectable for tests; ``fault_plan``
    threads a :class:`~repro.service.faults.FaultPlan` under the
    transport for chaos testing (``transport.lease`` /
    ``transport.complete`` / ``transport.request`` sites).
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0,
                 poll_interval: float = 0.05,
                 clock=time.monotonic, sleep=time.sleep,
                 fault_plan=None):
        if "//" not in base_url:  # bare host[:port] shorthand
            base_url = "http://" + base_url
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme != "http":
            raise ValueError(f"unsupported URL scheme in {base_url!r}")
        if not parsed.hostname:
            raise ValueError(f"no host in {base_url!r}")
        self.host = parsed.hostname  # handles [::1]:8737 correctly
        self.port = parsed.port if parsed.port is not None else 80
        #: path prefix preserved for reverse-proxied deployments
        #: (http://gateway/repro -> requests go to /repro/v1/...)
        self.prefix = parsed.path.rstrip("/")
        self.timeout = timeout
        self.poll_interval = poll_interval
        self._clock = clock
        self._sleep = sleep
        from repro.service.faults import resolve_plan
        self._plan = resolve_plan(fault_plan)
        self._local = threading.local()

    def close(self) -> None:
        """Close the calling thread's connection; a later request
        opens a new one."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            self._local.connection = None
            connection.close()

    # -- HTTP --------------------------------------------------------------

    def _fault_site(self, path: str) -> str:
        if path.endswith("/v1/work/lease"):
            return "transport.lease"
        if path.endswith("/v1/work/complete"):
            return "transport.complete"
        return "transport.request"

    def _request(self, method: str, path: str,
                 payload: Mapping | None = None) -> dict:
        """One logical request, through the fault seam."""
        from repro.service.faults import InjectedFault
        rule = self._plan.fire(self._fault_site(path)) \
            if self._plan else None
        if rule is not None:
            if rule.action == "drop":
                # the request never reaches the wire
                raise InjectedFault(rule.site, "drop")
            if rule.action == "delay":
                self._sleep(float(rule.arg) if rule.arg else 0.05)
        data = self._send(method, path, payload)
        if rule is not None and rule.action == "dup":
            # the wire delivered the request twice (a retried upload
            # whose first copy actually landed); keep the second reply
            data = self._send(method, path, payload)
        return data

    def _exchange(self, method: str, path: str, body: bytes | None,
                  headers: dict) -> tuple[int, bytes, str | None]:
        """One request over this thread's connection: ``(status, body,
        Retry-After)``.

        The server closes a connection that sat idle, possibly while
        this request was on its way; a request that fails on a *reused*
        connection before a reply arrives is therefore resent once, on
        a fresh connection.  Any other failure propagates.
        """
        while True:
            connection = getattr(self._local, "connection", None)
            reused = connection is not None
            if not reused:
                connection = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout)
                self._local.connection = connection
            replied = False
            try:
                connection.request(method, self.prefix + path, body=body,
                                   headers=headers)
                response = connection.getresponse()
                replied = True
                raw = response.read()
            except BaseException as exc:
                self.close()
                if reused and not replied and \
                        isinstance(exc, ConnectionError):
                    continue
                raise
            if response.will_close:  # the reply said Connection: close
                self.close()
            return response.status, raw, response.getheader("Retry-After")

    def _send(self, method: str, path: str,
              payload: Mapping | None = None) -> dict:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        status, raw, retry_after = self._exchange(method, path, body,
                                                  headers)
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            data = None
        if not 200 <= status < 300:
            reply = None
            if isinstance(data, dict):
                try:
                    reply = ErrorReply.from_wire(data)
                except SchemaError:
                    reply = None
            raise ServiceError(
                status, reply,
                retry_after=_parse_retry_after(retry_after))
        if not isinstance(data, dict):
            raise ServiceError(status, None)
        return data

    # -- endpoints ---------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/v1/health")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def metrics(self) -> str:
        """``GET /v1/metrics``: the Prometheus text exposition.

        The one non-JSON endpoint, so it bypasses ``_request``.
        """
        status, raw, _retry_after = self._exchange(
            "GET", "/v1/metrics", None, {"Accept": "text/plain"})
        if not 200 <= status < 300:
            reply = None
            try:
                reply = ErrorReply.from_wire(
                    json.loads(raw.decode("utf-8")))
            except (UnicodeDecodeError, json.JSONDecodeError,
                    SchemaError):
                pass
            raise ServiceError(status, reply)
        return raw.decode("utf-8")

    def query_results(self, *, benchmark: str | None = None,
                      coding: str | None = None,
                      memsys: str | None = None,
                      l2_latency: int | None = None,
                      warm: bool | None = None,
                      seed: int | None = None,
                      version: str | None = None,
                      limit: int | None = None) -> CacheQueryReply:
        """``GET /v1/results``: bulk-query the server's result cache.

        Filters match stored spec fields exactly; omitted ones match
        everything.  The server caps ``limit`` at its grid bound and
        flags ``truncated`` when more results existed.
        """
        params = {"benchmark": benchmark, "coding": coding,
                  "memsys": memsys, "l2_latency": l2_latency,
                  "seed": seed, "version": version, "limit": limit}
        if warm is not None:
            params["warm"] = "true" if warm else "false"
        query = urllib.parse.urlencode(
            {k: v for k, v in params.items() if v is not None})
        path = "/v1/results" + (f"?{query}" if query else "")
        return CacheQueryReply.from_wire(self._request("GET", path))

    def submit(self, specs: Iterable[RunSpec], *,
               deadline: float | None = None) -> JobResult:
        """POST a spec grid; returns the initial job snapshot.

        ``deadline`` (seconds) bounds how long the server lets the job
        run before resolving it ``expired`` for pollers.
        """
        request = JobRequest(specs=tuple(specs), deadline=deadline)
        return JobResult.from_wire(
            self._request("POST", "/v1/jobs", request.to_wire()))

    def submit_sweep(self, sweep: Sweep) -> JobResult:
        """POST a declarative sweep (expanded server-side)."""
        payload = {
            "schema_version": SCHEMA_VERSION,
            "sweep": {
                "benchmarks": list(sweep.benchmarks),
                "codings": list(sweep.codings),
                "memsystems": list(sweep.memsystems),
                "l2_latencies": list(sweep.l2_latencies),
                "overrides": [dict(over) for over in sweep.overrides],
                "warm": sweep.warm,
                "seed": sweep.seed,
            },
        }
        return JobResult.from_wire(
            self._request("POST", "/v1/jobs", payload))

    def poll(self, job_id: str) -> JobResult:
        return JobResult.from_wire(
            self._request("GET", f"/v1/jobs/{job_id}"))

    def wait(self, job_id: str, timeout: float = 300.0) -> JobResult:
        """Poll until the job leaves ``running`` (or raise on timeout).

        A job past its server-side deadline comes back ``expired`` —
        raised here as a structured ``job-expired`` error rather than
        hanging the poller.
        """
        deadline = self._clock() + timeout
        while True:
            result = self.poll(job_id)
            if result.status != "running":
                if result.status in ("failed", "expired"):
                    raise ServiceError(200, ErrorReply(
                        code=f"job-{result.status}",
                        message=result.error or "job failed"))
                return result
            if self._clock() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still running after {timeout:.0f}s")
            self._sleep(self.poll_interval)

    # -- worker pull protocol (remote execution backend) -------------------

    def lease_work(self, worker_id: str,
                   report: Mapping | None = None
                   ) -> WorkLeaseGrant | None:
        """Poll for one shard of work; None when the queue is idle.

        ``report`` (optional) is the worker's cumulative counter dict
        — the server folds it into its fleet-health gauges on
        ``/v1/metrics``.  Only meaningful against ``repro serve
        --backend remote`` — any other server answers 404
        ``no-work-queue`` (raised as :class:`ServiceError`).
        """
        payload: dict = {"schema_version": SCHEMA_VERSION,
                         "worker_id": worker_id}
        if report is not None:
            payload["report"] = dict(report)
        data = self._request("POST", "/v1/work/lease", payload)
        raw = data.get("lease")
        if raw is None:
            return None
        return WorkLeaseGrant.from_wire(raw)

    def complete_work(self, worker_id: str, grant: WorkLeaseGrant,
                      results: Mapping[RunSpec, RunStats], *,
                      elapsed: float | None = None,
                      report: Mapping | None = None) -> dict:
        """Upload a leased shard's results; returns the server's
        ``{accepted, fresh, duplicate}`` acknowledgment.

        ``elapsed`` (seconds spent simulating the shard) and
        ``report`` (cumulative worker counters) are optional additive
        observability fields feeding the server's ``/v1/metrics``.
        """
        completion = WorkCompletion(
            worker_id=worker_id, lease_id=grant.lease_id,
            shard_id=grant.shard_id,
            results=tuple((spec, results[spec])
                          for spec in grant.specs),
            elapsed=elapsed, report=report)
        return self._request("POST", "/v1/work/complete",
                             completion.to_wire())

    # -- engine-shaped conveniences ---------------------------------------

    def run_many(self, specs: Sequence[RunSpec],
                 timeout: float = 300.0) -> dict[RunSpec, RunStats]:
        """Remote ``Engine.run_many``: submit, wait, return the dict."""
        job = self.submit(specs)
        done = job if job.status == "done" else \
            self.wait(job.job_id, timeout=timeout)
        return done.stats_by_spec()

    def sweep(self, sweep: Sweep, timeout: float = 300.0
              ) -> dict[RunSpec, RunStats]:
        """Remote sweep: expanded server-side, same result shape."""
        job = self.submit_sweep(sweep)
        done = job if job.status == "done" else \
            self.wait(job.job_id, timeout=timeout)
        return done.stats_by_spec()
