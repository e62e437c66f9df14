"""Pluggable execution backends for the simulation engine.

The :class:`~repro.engine.Engine` resolves cache misses through an
:class:`ExecutionBackend` — a small protocol that turns a list of
:class:`~repro.engine.keys.RunSpec` into their
:class:`~repro.timing.stats.RunStats` — instead of hard-coding a
process pool.  Two implementations ship:

* :class:`~repro.engine.backends.inline.InlineBackend` — this
  machine: the calling thread at one job, a per-call
  ``ProcessPoolExecutor`` over trace shards at more;
* :class:`~repro.engine.backends.remote.RemoteBackend` — shards
  dispatched to pull-based ``repro worker`` processes through a
  lease-tracked :class:`~repro.engine.backends.workqueue.WorkQueue`
  (exposed over HTTP by the job service's ``/v1/work/*`` endpoints).

Every backend is *result-transparent*: for the same specs it must
return ``RunStats`` that are byte-identical (per ``to_dict``) to
serial execution — simulations are deterministic and independent, so
where they run can never change what they compute.  The backend
parity suite (``tests/test_backends.py``) asserts exactly that on the
paper's evaluation grids.  See ``docs/backends.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.engine.keys import RunSpec
    from repro.timing.stats import RunStats

# Each backend class loads when first named or built: they import the
# spec executor (``engine.parallel``), and the remote one its queue
# machinery, none of which a cache hit runs.
__getattr__ = lazy_exports(__name__, {
    "repro.engine.backends.inline": ("InlineBackend",),
    "repro.engine.backends.remote": ("RemoteBackend",),
    "repro.engine.backends.workqueue": ("WorkLease", "WorkQueue",
                                        "WorkQueueError", "WorkShard"),
})


@runtime_checkable
class ExecutionBackend(Protocol):
    """What the engine needs from an execution strategy.

    ``execute`` must resolve *every* input spec (raising if any spec
    cannot be) and may run them anywhere, in any order; how wide it
    goes is the backend's own setting.  Backends dispatch whole trace
    groups, so the executing side can simulate each group in one
    :class:`~repro.timing.grid.GridPipeline` pass
    (:func:`repro.engine.parallel.plan_grid`).  ``counters()`` returns
    plain-data dispatch evidence for ``EngineStats`` and the service's
    ``/v1/stats``; ``close()`` releases any long-lived resources (all
    shipped backends hold none across calls).
    """

    name: str

    def execute(self, specs: "list[RunSpec]"
                ) -> "dict[RunSpec, RunStats]": ...

    def counters(self) -> dict: ...

    def close(self) -> None: ...


#: Backend names accepted by :func:`make_backend` and ``--backend``.
BACKEND_NAMES = ("inline", "remote")


def make_backend(name: str, *, jobs: int = 1, lease_ttl: float = 30.0,
                 wait_timeout: float = 600.0) -> ExecutionBackend:
    """Construct a backend by name (the ``--backend`` flag's factory).

    Only the parameters a backend understands reach it: ``jobs`` sets
    the inline backend's pool width and the remote backend's shard
    fan-out; ``lease_ttl``/``wait_timeout`` are remote-only.
    """
    if name == "inline":
        from repro.engine.backends.inline import InlineBackend
        return InlineBackend(jobs=jobs)
    if name == "remote":
        from repro.engine.backends.remote import RemoteBackend
        return RemoteBackend(lease_ttl=lease_ttl,
                             wait_timeout=wait_timeout, shards=jobs)
    raise ValueError(f"unknown execution backend {name!r}; expected "
                     f"one of {BACKEND_NAMES}")


__all__ = [
    "BACKEND_NAMES", "ExecutionBackend", "InlineBackend",
    "RemoteBackend", "WorkLease", "WorkQueue", "WorkQueueError",
    "WorkShard", "make_backend",
]
