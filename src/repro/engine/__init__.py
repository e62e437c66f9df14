"""Experiment orchestration engine.

The engine owns everything between "a grid of run specifications" and
"their statistics":

* :mod:`repro.engine.keys` — frozen, hashable :class:`RunSpec` with a
  stable content digest;
* :mod:`repro.engine.cache` — persistent on-disk result store keyed by
  spec digest + code version;
* :mod:`repro.engine.parallel` — spec-to-simulator resolution and
  one shard per workload trace;
* :mod:`repro.engine.backends` — pluggable
  :class:`~repro.engine.backends.ExecutionBackend` strategies (this
  machine, serially or over a process pool, and remote lease-queue
  workers) that decide *where* uncached specs simulate;
* :mod:`repro.engine.sweep` — declarative grid construction.

:class:`Engine` ties them together with a three-level lookup per spec:
in-process memo (identity-preserving), disk cache (equality-preserving)
and fresh simulation through the configured backend.
``repro.harness.Runner`` is a thin façade over an Engine; the CLI,
experiments, the job service and ablation benchmarks all route through
it.  See ``docs/engine.md`` and ``docs/backends.md``.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from repro.engine.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    make_backend,
)
from repro.engine.cache import ResultCache, code_version, default_cache_root
from repro.engine.keys import RunSpec
from repro.engine.store import SegmentStore
from repro.engine.sweep import Sweep, axes_product
from repro.lazy import lazy_exports
from repro.timing.stats import RunStats

if TYPE_CHECKING:
    from repro.workloads import BuiltWorkload

# The backend classes and the spec executor load when a backend is
# built or a spec is dispatched: a cache hit runs neither.
__getattr__ = lazy_exports(__name__, {
    "repro.engine.backends.inline": ("InlineBackend",),
    "repro.engine.backends.remote": ("RemoteBackend",),
    "repro.engine.backends.workqueue": ("WorkQueue",),
    "repro.engine.parallel": (
        "build_configs", "build_memsys", "build_processor",
        "execute_spec", "grid_eligible", "grid_group_key", "plan_grid",
        "register_trace", "shard_specs", "simulate_specs",
        "validate_spec"),
})


def build_workload(benchmark: str, coding: str, seed: int = 0
                   ) -> BuiltWorkload:
    """:func:`repro.engine.parallel.build_workload`, importing that
    module on the first call.

    A function here rather than a lazy export: a tool that wraps
    ``repro.engine.build_workload`` in place (a tracer) finds it in the
    module's namespace.
    """
    from repro.engine import parallel

    return parallel.build_workload(benchmark, coding, seed)


@dataclass
class EngineStats:
    """What the engine did this session (the cache-hit evidence)."""

    #: fresh simulations actually executed (wherever they ran)
    simulations: int = 0
    #: results served from the in-process memo
    memo_hits: int = 0
    #: results loaded from the persistent cache
    disk_hits: int = 0
    #: results written to the persistent cache
    stores: int = 0
    #: backend ``execute`` calls issued for uncached specs
    dispatches: int = 0
    #: trace groups planned for the grid-axis path.  Every backend
    #: ships whole traces (``parallel.shard_specs``) and the executing
    #: side recomputes the same plan (``parallel.simulate_specs``), so
    #: these counters equal what ran
    grid_groups: int = 0
    #: specs planned per-spec (``timing_model`` overrides, and specs
    #: alone in their trace group)
    grid_fallbacks: int = 0

    def summary(self) -> str:
        return (f"simulations={self.simulations} "
                f"disk-hits={self.disk_hits} memo-hits={self.memo_hits} "
                f"stores={self.stores} dispatches={self.dispatches} "
                f"grid-groups={self.grid_groups} "
                f"grid-fallbacks={self.grid_fallbacks}")

    def to_dict(self) -> dict:
        """Plain-data counters (the service's ``/v1/stats`` payload)."""
        return asdict(self)


class Engine:
    """Cache- and backend-backed simulation orchestrator.

    One Engine may be shared by several threads (the service scheduler
    resolves batches on executor threads): the memo, the stats counters
    and cache admission are guarded by a single lock, and admission is
    first-writer-wins so every caller observes the same ``RunStats``
    object for equal specs.  Simulations themselves always run outside
    the lock — concurrent lookups never wait on a running simulation
    (in-flight dedup is the scheduler's job, not the engine's).

    ``backend`` decides where uncached specs execute: an
    :class:`~repro.engine.backends.ExecutionBackend` instance, or a
    name (``"inline"``/``"remote"``); None means ``"inline"``.
    ``jobs`` is the inline backend's width, and ``jobs=None`` builds it
    as wide as the usable cores (a dispatch over two or more traces
    from the main thread then runs in a process pool).

    ``run_many`` groups pending specs by trace (``(benchmark, coding,
    seed, warm)``), and the executing side simulates each group of two
    or more in one :class:`~repro.timing.grid.GridPipeline` pass and
    every other spec on the per-spec path (``parallel.plan_grid``).
    Statistics are bit-identical either way.
    """

    def __init__(self, seed: int = 0, jobs: int | None = None,
                 cache_dir=None, use_cache: bool = True,
                 backend: ExecutionBackend | str | None = None):
        self.seed = seed
        if isinstance(backend, str) or backend is None:
            backend = make_backend(backend or "inline", jobs=jobs)
        self.backend: ExecutionBackend = backend
        self.cache: ResultCache | None = (
            ResultCache(cache_dir) if use_cache else None)
        self.stats = EngineStats()
        self._memo: dict[RunSpec, RunStats] = {}
        self._lock = threading.RLock()

    # -- spec construction -------------------------------------------------

    def spec(self, benchmark: str, coding: str, memsys: str = "vector",
             l2_latency: int = 20, warm: bool = True,
             overrides=()) -> RunSpec:
        """Build a RunSpec bound to this engine's seed."""
        return RunSpec(benchmark=benchmark, coding=coding, memsys=memsys,
                       l2_latency=l2_latency, warm=warm, seed=self.seed,
                       overrides=overrides)

    # -- execution ---------------------------------------------------------

    def run(self, spec: RunSpec) -> RunStats:
        """Resolve one spec: memo, then disk cache, then simulation.

        Repeated calls with an equal spec return the *same* object
        (identity-preserving memoization, like the original Runner).
        """
        hit = self.memo_lookup(spec)
        if hit is not None:
            return hit
        return self.run_many([spec])[spec]

    def run_many(self, specs) -> dict[RunSpec, RunStats]:
        """Resolve a whole grid, dispatching uncached specs through the
        engine's execution backend.

        Returns a dict keyed by spec covering every input (duplicates
        collapse).
        """
        specs = list(dict.fromkeys(specs))  # dedupe, keep order
        results, pending = self._lookup_many(specs)
        if pending:
            with self._lock:
                self.stats.dispatches += 1
                self._plan(pending)
            fresh = self.backend.execute(pending)
            with self._lock:
                self.stats.simulations += len(fresh)
            results.update(self._admit_many(fresh))
        return {spec: results[spec] for spec in specs}

    def memo_lookup(self, spec: RunSpec) -> RunStats | None:
        """The memoized result for ``spec`` (a counted memo hit), or None.

        Memo only: it never reads the disk cache or calls a backend, so
        it cannot block — the service scheduler answers memo hits on
        its event loop through it, at submit time.
        """
        with self._lock:
            hit = self._memo.get(spec)
            if hit is not None:
                self.stats.memo_hits += 1
            return hit

    def _plan(self, pending) -> None:
        """Account the grid planner's decision for a dispatch (caller
        holds the lock; ``plan_grid`` is one dict pass over the specs,
        so recomputing it on the executing side costs nothing)."""
        from repro.engine.parallel import plan_grid

        groups, fallbacks = plan_grid(pending)
        self.stats.grid_groups += len(groups)
        self.stats.grid_fallbacks += len(fallbacks)

    def close(self) -> None:
        """Close the result store's files and the backend.

        Whoever owns the engine calls this where its use ends.  The
        memo stays and the store reopens on demand, so a closed engine
        still answers from memory and disk.
        """
        if self.cache is not None:
            self.cache.close()
        self.backend.close()

    # -- internals ---------------------------------------------------------
    #
    # The lock guards only in-memory state (memo dict, counters); disk
    # reads and writes happen outside it so one thread's cache I/O
    # never stalls another thread's pure memo hits.

    def _lookup_many(self, specs) -> tuple[dict, list]:
        """Bulk three-level lookup for a whole grid.

        One locked pass resolves the memo hits, then a single
        ``cache.get_many`` resolves every remaining spec against the
        segment store — one index probe per digest, reads grouped per
        segment.  Returns ``(hits dict, pending list)``.
        """
        results: dict[RunSpec, RunStats] = {}
        misses: list[RunSpec] = []
        with self._lock:
            for spec in specs:
                hit = self._memo.get(spec)
                if hit is not None:
                    self.stats.memo_hits += 1
                    results[spec] = hit
                else:
                    misses.append(spec)
        if self.cache is not None and misses:
            found = self.cache.get_many(misses)  # disk reads, unlocked
            if found:
                with self._lock:
                    for spec, stats in found.items():
                        existing = self._memo.get(spec)
                        if existing is None:
                            self.stats.disk_hits += 1
                            self._memo[spec] = stats
                            existing = stats
                        else:
                            # raced a concurrent admit: the caller gets
                            # the memo's object, so it counts as a memo
                            # hit
                            self.stats.memo_hits += 1
                        results[spec] = existing
        return results, [spec for spec in misses if spec not in results]

    def _admit_many(self, fresh) -> dict:
        """Admit a batch of fresh results; first writer wins per spec.

        When another thread simulated the same spec concurrently and
        admitted first, its object is kept (and returned), so
        identity-preserving memoization survives concurrent use.  The
        winners are decided under one lock pass and persisted in a
        single ``cache.put_many`` append batch after releasing it, so
        a shard's worth of results costs one store write, not N.
        """
        out: dict[RunSpec, RunStats] = {}
        winners: list[tuple[RunSpec, RunStats]] = []
        with self._lock:
            store = self.cache is not None
            for spec, stats in fresh.items():
                existing = self._memo.get(spec)
                if existing is not None:
                    out[spec] = existing
                    continue
                self._memo[spec] = stats
                out[spec] = stats
                if store:
                    self.stats.stores += 1
                    winners.append((spec, stats))
        if winners:
            self.cache.put_many(winners)  # disk writes, unlocked
        return out


__all__ = [
    "BACKEND_NAMES", "Engine", "EngineStats",
    "ExecutionBackend", "InlineBackend", "RemoteBackend",
    "ResultCache", "RunSpec", "SegmentStore", "Sweep", "WorkQueue",
    "axes_product",
    "build_configs", "build_memsys", "build_processor",
    "build_workload", "code_version", "default_cache_root",
    "execute_spec", "grid_eligible", "grid_group_key", "make_backend",
    "plan_grid", "register_trace", "shard_specs",
    "simulate_specs", "validate_spec",
]
