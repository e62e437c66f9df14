"""Versioned JSON wire schema for the job service.

Everything that crosses the HTTP boundary is described here, in plain
JSON-serializable dicts:

* :class:`JobRequest` — what a client submits: an explicit spec grid
  (``"specs"``) or a declarative sweep (``"sweep"``, expanded
  server-side with :class:`repro.engine.Sweep` semantics);
* :class:`JobResult` — a job snapshot: id, status, and — once done —
  one ``{spec, stats}`` entry per unique submitted spec, in submission
  order;
* :class:`WorkLeaseGrant` / :class:`WorkCompletion` — the pull-based
  worker protocol behind ``POST /v1/work/lease`` and
  ``POST /v1/work/complete`` (remote execution backend; see
  ``docs/backends.md``);
* :class:`ErrorReply` — every non-2xx body: a machine-readable code, a
  human-readable message, and per-field structured errors.

Encoding is *total*: ``spec_from_wire(spec_to_wire(s)) == s`` for every
valid :class:`~repro.engine.keys.RunSpec` (overrides and the
``timing_model`` override included) and likewise for
:class:`~repro.timing.stats.RunStats` via its lossless
``to_dict``/``from_dict`` pair — property-tested in
``tests/test_service_schema.py``.  Malformed payloads raise
:class:`SchemaError` carrying ``{path, message}`` records instead of
bare ``KeyError``/``TypeError`` tracebacks.

Versioning policy: every payload carries ``schema_version``; a server
only accepts its own version (:data:`SCHEMA_VERSION`) and replies with
``error.code = "unsupported-schema-version"`` otherwise.  Additive
response fields do not bump the version; any change to existing field
meaning or spec/stats encoding does.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.engine.keys import RunSpec
from repro.engine.sweep import Sweep
from repro.errors import ConfigError, ReproError
from repro.timing.stats import RunStats
from repro.workloads import benchmark_names

#: Wire-format version; bumped on any incompatible change.
SCHEMA_VERSION = 1

#: Job lifecycle states a :class:`JobResult` may report.  ``expired``
#: is terminal: the job's deadline passed before its futures resolved
#: (a structured timeout, so pollers stop instead of hanging).
JOB_STATUSES = ("running", "done", "failed", "expired")

#: Largest spec grid one submission may carry (explicit or expanded
#: from a sweep) — a tiny JSON sweep must not balloon server-side.
MAX_GRID = 4096

#: JSON scalar types allowed for override values.
_SCALAR = (bool, int, float, str)


class SchemaError(ReproError):
    """A wire payload failed validation.

    ``errors`` is a tuple of ``{"path": ..., "message": ...}`` dicts —
    one per problem found — which the server serializes into an
    :class:`ErrorReply` (HTTP 400) verbatim.
    """

    def __init__(self, errors: Sequence[Mapping]):
        self.errors = tuple(dict(e) for e in errors)
        first = self.errors[0] if self.errors else {}
        extra = len(self.errors) - 1
        message = f"{first.get('path', '$')}: {first.get('message', '?')}"
        if extra > 0:
            message += f" (+{extra} more)"
        super().__init__(message)


def _fail(path: str, message: str) -> SchemaError:
    return SchemaError([{"path": path, "message": message}])


def _require_mapping(data, path: str) -> Mapping:
    if not isinstance(data, Mapping):
        raise _fail(path, f"expected an object, got "
                          f"{type(data).__name__}")
    return data


def _get_typed(data: Mapping, name: str, kind, path: str, default):
    """Fetch ``data[name]`` checking its JSON type (bool is not int)."""
    if name not in data:
        if default is not _REQUIRED:
            return default
        raise _fail(f"{path}.{name}", "required field is missing")
    value = data[name]
    if kind is int and isinstance(value, bool):
        raise _fail(f"{path}.{name}", "expected an integer, got a bool")
    if not isinstance(value, kind):
        kind_name = kind.__name__ if isinstance(kind, type) \
            else "/".join(k.__name__ for k in kind)
        raise _fail(f"{path}.{name}",
                    f"expected {kind_name}, got {type(value).__name__}")
    return value


_REQUIRED = object()


def check_schema_version(payload: Mapping, path: str = "$") -> None:
    """Reject payloads from another (or no) schema version."""
    payload = _require_mapping(payload, path)
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise _fail(f"{path}.schema_version",
                    f"unsupported schema version {version!r}; this "
                    f"endpoint speaks version {SCHEMA_VERSION}")


# -- RunSpec ---------------------------------------------------------------


def spec_to_wire(spec: RunSpec) -> dict:
    """Encode one spec (the canonical ``RunSpec.to_dict`` form)."""
    return spec.to_dict()


def spec_from_wire(data, path: str = "spec") -> RunSpec:
    """Decode and validate one spec; total inverse of ``spec_to_wire``.

    Unlike ``RunSpec`` itself (which defers benchmark validation to
    build time), the wire decoder rejects unknown benchmarks up front:
    a service cannot resolve ``trace:``/typo'd names, so they must be
    a structured 400 at submission, not a failed job later.
    """
    data = _require_mapping(data, path)
    benchmark = _get_typed(data, "benchmark", str, path, _REQUIRED)
    if benchmark not in benchmark_names():
        raise _fail(f"{path}.benchmark",
                    f"unknown benchmark {benchmark!r}; known: "
                    f"{benchmark_names()}")
    coding = _get_typed(data, "coding", str, path, _REQUIRED)
    memsys = _get_typed(data, "memsys", str, path, "vector")
    l2_latency = _get_typed(data, "l2_latency", int, path, 20)
    warm = _get_typed(data, "warm", bool, path, True)
    seed = _get_typed(data, "seed", int, path, 0)
    raw_overrides = _get_typed(data, "overrides", Sequence, path, ())
    if isinstance(raw_overrides, str):
        raise _fail(f"{path}.overrides",
                    "expected a list of [field, value] pairs")
    overrides = []
    for i, pair in enumerate(raw_overrides):
        opath = f"{path}.overrides[{i}]"
        if (isinstance(pair, str) or not isinstance(pair, Sequence)
                or len(pair) != 2):
            raise _fail(opath, "expected a [field, value] pair")
        name, value = pair
        if not isinstance(name, str):
            raise _fail(opath, "override field name must be a string")
        if not isinstance(value, _SCALAR):
            raise _fail(opath, f"override value must be a JSON scalar, "
                               f"got {type(value).__name__}")
        overrides.append((name, value))
    try:
        return RunSpec(benchmark=benchmark, coding=coding, memsys=memsys,
                       l2_latency=l2_latency, warm=warm, seed=seed,
                       overrides=tuple(overrides))
    except ConfigError as exc:
        raise _fail(path, str(exc)) from None


# -- RunStats --------------------------------------------------------------


def stats_to_wire(stats: RunStats) -> dict:
    """Encode run statistics (the lossless ``RunStats.to_dict`` form)."""
    return stats.to_dict()


def stats_from_wire(data, path: str = "stats") -> RunStats:
    """Decode run statistics, surfacing shape errors structurally."""
    data = _require_mapping(data, path)
    try:
        return RunStats.from_dict(data)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise _fail(path, f"malformed RunStats payload: {exc!r}") from None


# -- cache query (GET /v1/results) -----------------------------------------


@dataclass(frozen=True)
class CacheQueryReply:
    """Bulk cache-query results: stored ``(spec, stats)`` pairs.

    Specs decode through the *lenient* ``RunSpec.from_dict`` (not
    :func:`spec_from_wire`): a cache may legitimately hold results for
    ``trace:`` replays or synthetic benchmark names the submission
    validator would refuse, and a query client only inspects them.
    Replies from older servers carry a ``layout`` key; it is ignored.
    """

    version: str | None
    truncated: bool
    results: tuple[tuple[RunSpec, RunStats], ...]

    def to_wire(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "version": self.version,
            "count": len(self.results),
            "truncated": self.truncated,
            "results": [{"spec": spec_to_wire(spec),
                         "stats": stats_to_wire(stats)}
                        for spec, stats in self.results],
        }

    @classmethod
    def from_wire(cls, payload) -> "CacheQueryReply":
        path = "$"
        payload = _require_mapping(payload, path)
        check_schema_version(payload, path)
        version = payload.get("version")
        if version is not None and not isinstance(version, str):
            raise _fail(f"{path}.version", "expected a string or null")
        truncated = _get_typed(payload, "truncated", bool, path, False)
        raw = _get_typed(payload, "results", Sequence, path, _REQUIRED)
        if isinstance(raw, str):
            raise _fail(f"{path}.results", "expected a list")
        results = []
        for i, item in enumerate(raw):
            ipath = f"{path}.results[{i}]"
            item = _require_mapping(item, ipath)
            spec_dict = _require_mapping(item.get("spec"),
                                         f"{ipath}.spec")
            try:
                spec = RunSpec.from_dict(spec_dict)
            except (ConfigError, KeyError, ValueError, TypeError) as exc:
                raise _fail(f"{ipath}.spec",
                            f"malformed spec: {exc!r}") from None
            stats = stats_from_wire(item.get("stats"),
                                    path=f"{ipath}.stats")
            results.append((spec, stats))
        return cls(version=version, truncated=truncated,
                   results=tuple(results))


# -- requests --------------------------------------------------------------


#: wire-absent marker: omitted sweep fields use Sweep's own dataclass
#: defaults, so one definition owns them (no drift between in-process
#: and wire-submitted sweeps)
_OMITTED = object()


def _sweep_from_wire(data, path: str) -> Sweep:
    data = _require_mapping(data, path)
    known = {"benchmarks", "codings", "memsystems", "l2_latencies",
             "overrides", "warm", "seed"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise _fail(f"{path}.{unknown[0]}", "unknown sweep field")

    def _str_axis(name: str, default):
        values = _get_typed(data, name, Sequence, path, default)
        if values is _OMITTED:
            return values
        if isinstance(values, str) or not all(
                isinstance(v, str) for v in values):
            raise _fail(f"{path}.{name}", "expected a list of strings")
        return tuple(values)

    benchmarks = _str_axis("benchmarks", _REQUIRED)
    if not benchmarks:
        raise _fail(f"{path}.benchmarks", "at least one benchmark "
                                          "is required")
    unknown_benchmarks = [b for b in benchmarks
                          if b not in benchmark_names()]
    if unknown_benchmarks:
        raise _fail(f"{path}.benchmarks",
                    f"unknown benchmark {unknown_benchmarks[0]!r}; "
                    f"known: {benchmark_names()}")

    kwargs: dict = {"benchmarks": benchmarks}
    for axis in ("codings", "memsystems"):
        values = _str_axis(axis, _OMITTED)
        if values is not _OMITTED:
            kwargs[axis] = values
    latencies = _get_typed(data, "l2_latencies", Sequence, path,
                           _OMITTED)
    if latencies is not _OMITTED:
        if isinstance(latencies, str) or not all(
                isinstance(v, int) and not isinstance(v, bool)
                for v in latencies):
            raise _fail(f"{path}.l2_latencies",
                        "expected a list of integers")
        kwargs["l2_latencies"] = tuple(latencies)
    raw_overrides = _get_typed(data, "overrides", Sequence, path,
                               _OMITTED)
    if raw_overrides is not _OMITTED:
        overrides = []
        for i, over in enumerate(raw_overrides):
            opath = f"{path}.overrides[{i}]"
            over = _require_mapping(over, opath)
            for name, value in over.items():
                if not isinstance(name, str) \
                        or not isinstance(value, _SCALAR):
                    raise _fail(opath,
                                "override mappings take string fields "
                                "and JSON scalar values")
            overrides.append(dict(over))
        # an explicitly empty axis means a zero-spec sweep, exactly as
        # Sweep(overrides=()) does in-process; from_wire rejects it
        kwargs["overrides"] = tuple(overrides)
    warm = _get_typed(data, "warm", bool, path, _OMITTED)
    if warm is not _OMITTED:
        kwargs["warm"] = warm
    seed = _get_typed(data, "seed", int, path, _OMITTED)
    if seed is not _OMITTED:
        kwargs["seed"] = seed
    return Sweep(**kwargs)


@dataclass(frozen=True)
class JobRequest:
    """A submission: the (deduplicated, order-preserving) spec grid.

    ``deadline`` (optional, seconds from admission) bounds how long
    the *job* may stay ``running``: past it, polls answer with the
    terminal ``expired`` status and a structured timeout error
    instead of leaving the client hanging.  The underlying
    simulations are not cancelled — their results still land in the
    cache for the next submission.
    """

    specs: tuple[RunSpec, ...]
    deadline: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs",
                           tuple(dict.fromkeys(self.specs)))
        if self.deadline is not None and self.deadline <= 0:
            raise _fail("$.deadline",
                        "expected a positive number of seconds")

    def to_wire(self) -> dict:
        wire: dict = {
            "schema_version": SCHEMA_VERSION,
            "specs": [spec_to_wire(spec) for spec in self.specs],
        }
        if self.deadline is not None:
            wire["deadline"] = self.deadline
        return wire

    @classmethod
    def from_wire(cls, payload) -> "JobRequest":
        """Decode a submission (explicit ``specs`` or a ``sweep``)."""
        payload = _require_mapping(payload, "$")
        check_schema_version(payload)
        deadline = payload.get("deadline")
        if deadline is not None:
            if isinstance(deadline, bool) \
                    or not isinstance(deadline, (int, float)) \
                    or deadline <= 0:
                raise _fail("$.deadline",
                            "expected a positive number of seconds")
            deadline = float(deadline)
        has_specs = "specs" in payload
        has_sweep = "sweep" in payload
        if has_specs == has_sweep:
            raise _fail("$", "a job request carries exactly one of "
                             "'specs' or 'sweep'")
        if has_sweep:
            sweep = _sweep_from_wire(payload["sweep"], "$.sweep")
            if len(sweep) == 0:  # an explicitly empty axis
                raise _fail("$.sweep", "sweep expands to zero specs")
            if len(sweep) > MAX_GRID:  # before expansion, by design
                raise _fail("$.sweep",
                            f"sweep expands to {len(sweep)} specs; "
                            f"the limit is {MAX_GRID}")
            try:
                specs = tuple(sweep.specs())
            except ConfigError as exc:
                raise _fail("$.sweep", str(exc)) from None
            return cls(specs=specs, deadline=deadline)
        raw = payload["specs"]
        if isinstance(raw, str) or not isinstance(raw, Sequence):
            raise _fail("$.specs", "expected a list of spec objects")
        if not raw:
            raise _fail("$.specs", "at least one spec is required")
        if len(raw) > MAX_GRID:
            raise _fail("$.specs", f"{len(raw)} specs exceed the "
                                   f"limit of {MAX_GRID}")
        errors: list[dict] = []
        specs: list[RunSpec] = []
        for i, item in enumerate(raw):
            try:
                specs.append(spec_from_wire(item, f"$.specs[{i}]"))
            except SchemaError as exc:
                errors.extend(exc.errors)
        if errors:
            raise SchemaError(errors)
        return cls(specs=tuple(specs), deadline=deadline)


# -- results ---------------------------------------------------------------


@dataclass(frozen=True)
class JobResult:
    """One job's externally visible snapshot."""

    job_id: str
    status: str
    #: (spec, stats) per unique spec, submission order; None until done
    results: tuple[tuple[RunSpec, RunStats], ...] | None = None
    #: failure message when status == "failed"
    error: str | None = None

    def __post_init__(self) -> None:
        if self.status not in JOB_STATUSES:
            raise _fail("$.status", f"unknown job status {self.status!r};"
                                    f" expected one of {JOB_STATUSES}")

    def stats_by_spec(self) -> dict[RunSpec, RunStats]:
        """Results as the ``Engine.run_many`` dict shape."""
        return dict(self.results or ())

    def to_wire(self) -> dict:
        results = None
        if self.results is not None:
            results = [{"spec": spec_to_wire(spec),
                        "stats": stats_to_wire(stats)}
                       for spec, stats in self.results]
        return {
            "schema_version": SCHEMA_VERSION,
            "job_id": self.job_id,
            "status": self.status,
            "results": results,
            "error": self.error,
        }

    @classmethod
    def from_wire(cls, payload) -> "JobResult":
        payload = _require_mapping(payload, "$")
        check_schema_version(payload)
        job_id = _get_typed(payload, "job_id", str, "$", _REQUIRED)
        status = _get_typed(payload, "status", str, "$", _REQUIRED)
        error = payload.get("error")
        if error is not None and not isinstance(error, str):
            raise _fail("$.error", "expected a string or null")
        raw = payload.get("results")
        results = None
        if raw is not None:
            if isinstance(raw, str) or not isinstance(raw, Sequence):
                raise _fail("$.results", "expected a list or null")
            results = []
            for i, item in enumerate(raw):
                item = _require_mapping(item, f"$.results[{i}]")
                spec = spec_from_wire(item.get("spec"),
                                      f"$.results[{i}].spec")
                stats = stats_from_wire(item.get("stats"),
                                        f"$.results[{i}].stats")
                results.append((spec, stats))
            results = tuple(results)
        return cls(job_id=job_id, status=status, results=results,
                   error=error)


# -- worker protocol -------------------------------------------------------


@dataclass(frozen=True)
class WorkLeaseGrant:
    """One shard handed to a worker by ``POST /v1/work/lease``.

    ``lease_id`` names this grant (a re-lease of the same shard gets a
    fresh one); ``ttl`` is how many seconds the worker has to complete
    before the shard is offered to someone else.
    """

    lease_id: str
    shard_id: str
    ttl: float
    specs: tuple[RunSpec, ...]

    def to_wire(self) -> dict:
        return {
            "lease_id": self.lease_id,
            "shard_id": self.shard_id,
            "ttl": self.ttl,
            "specs": [spec_to_wire(spec) for spec in self.specs],
        }

    @classmethod
    def from_wire(cls, payload, path: str = "$.lease"
                  ) -> "WorkLeaseGrant":
        payload = _require_mapping(payload, path)
        lease_id = _get_typed(payload, "lease_id", str, path, _REQUIRED)
        shard_id = _get_typed(payload, "shard_id", str, path, _REQUIRED)
        ttl = _get_typed(payload, "ttl", (int, float), path, _REQUIRED)
        raw = _get_typed(payload, "specs", Sequence, path, _REQUIRED)
        if isinstance(raw, str) or not raw:
            raise _fail(f"{path}.specs",
                        "expected a non-empty list of spec objects")
        specs = tuple(spec_from_wire(item, f"{path}.specs[{i}]")
                      for i, item in enumerate(raw))
        return cls(lease_id=lease_id, shard_id=shard_id,
                   ttl=float(ttl), specs=specs)


def _report_from_wire(payload: Mapping, path: str) -> dict | None:
    """Decode an optional worker self-report (``WorkerStats`` dict).

    Additive observability payload: numeric values keyed by counter
    name.  ``None`` when absent — old workers simply never send one.
    """
    raw = payload.get("report")
    if raw is None:
        return None
    raw = _require_mapping(raw, f"{path}.report")
    report: dict = {}
    for name, value in raw.items():
        if not isinstance(name, str) or isinstance(value, bool) \
                or not isinstance(value, (int, float)):
            raise _fail(f"{path}.report",
                        "expected numeric values keyed by counter name")
        report[name] = value
    return report


def work_lease_request_from_wire(payload) -> tuple[str, dict | None]:
    """Decode a lease request: ``(worker_id, optional self-report)``.

    The report — the worker's cumulative :class:`WorkerStats` counters
    — rides every poll, so the server's fleet view (``/v1/metrics``)
    stays fresh even for workers that never complete anything (e.g.
    one whose engine keeps failing shards).
    """
    payload = _require_mapping(payload, "$")
    check_schema_version(payload)
    worker_id = _get_typed(payload, "worker_id", str, "$", _REQUIRED)
    if not worker_id:
        raise _fail("$.worker_id", "worker_id must be non-empty")
    return worker_id, _report_from_wire(payload, "$")


@dataclass(frozen=True)
class WorkCompletion:
    """A worker's upload for one leased shard.

    Carries one ``{spec, stats}`` entry per spec of the shard; the
    server admits them into the shared content-addressed cache exactly
    once (duplicate completions — e.g. after a lease expired and the
    shard was re-leased — are acknowledged but ignored).
    """

    worker_id: str
    lease_id: str
    shard_id: str
    results: tuple[tuple[RunSpec, RunStats], ...]
    #: seconds the worker spent simulating this shard (optional,
    #: additive: feeds the server's per-shard wall-time histogram)
    elapsed: float | None = None
    #: the worker's cumulative counters (optional self-report)
    report: Mapping | None = None

    def to_wire(self) -> dict:
        wire = {
            "schema_version": SCHEMA_VERSION,
            "worker_id": self.worker_id,
            "lease_id": self.lease_id,
            "shard_id": self.shard_id,
            "results": [{"spec": spec_to_wire(spec),
                         "stats": stats_to_wire(stats)}
                        for spec, stats in self.results],
        }
        if self.elapsed is not None:
            wire["elapsed"] = self.elapsed
        if self.report is not None:
            wire["report"] = dict(self.report)
        return wire

    @classmethod
    def from_wire(cls, payload) -> "WorkCompletion":
        payload = _require_mapping(payload, "$")
        check_schema_version(payload)
        worker_id = _get_typed(payload, "worker_id", str, "$", _REQUIRED)
        lease_id = _get_typed(payload, "lease_id", str, "$", _REQUIRED)
        shard_id = _get_typed(payload, "shard_id", str, "$", _REQUIRED)
        raw = _get_typed(payload, "results", Sequence, "$", _REQUIRED)
        if isinstance(raw, str) or not raw:
            raise _fail("$.results",
                        "expected a non-empty list of results")
        results = []
        for i, item in enumerate(raw):
            item = _require_mapping(item, f"$.results[{i}]")
            spec = spec_from_wire(item.get("spec"),
                                  f"$.results[{i}].spec")
            stats = stats_from_wire(item.get("stats"),
                                    f"$.results[{i}].stats")
            results.append((spec, stats))
        elapsed = payload.get("elapsed")
        if elapsed is not None:
            if isinstance(elapsed, bool) \
                    or not isinstance(elapsed, (int, float)) \
                    or elapsed < 0:
                raise _fail("$.elapsed",
                            "expected a non-negative number of seconds")
            elapsed = float(elapsed)
        return cls(worker_id=worker_id, lease_id=lease_id,
                   shard_id=shard_id, results=tuple(results),
                   elapsed=elapsed,
                   report=_report_from_wire(payload, "$"))


# -- errors ----------------------------------------------------------------


@dataclass(frozen=True)
class ErrorReply:
    """The body of every non-2xx response."""

    code: str
    message: str
    errors: tuple[dict, ...] = field(default=())

    def to_wire(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "error": {
                "code": self.code,
                "message": self.message,
                "errors": [dict(e) for e in self.errors],
            },
        }

    @classmethod
    def from_wire(cls, payload) -> "ErrorReply":
        payload = _require_mapping(payload, "$")
        body = _require_mapping(payload.get("error"), "$.error")
        return cls(
            code=_get_typed(body, "code", str, "$.error", _REQUIRED),
            message=_get_typed(body, "message", str, "$.error",
                               _REQUIRED),
            errors=tuple(dict(_require_mapping(e, f"$.error.errors[{i}]"))
                         for i, e in enumerate(body.get("errors", ()))),
        )

    @classmethod
    def from_schema_error(cls, exc: SchemaError) -> "ErrorReply":
        return cls(code="invalid-request", message=str(exc),
                   errors=exc.errors)
