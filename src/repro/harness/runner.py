"""Simulation runner: a thin façade over :mod:`repro.engine`.

The public API is unchanged from the original in-process memoizing
runner — ``run(benchmark, coding, memsys, l2_latency, warm)`` returns
the same :class:`RunStats` object for repeated calls — but every run
now resolves through the engine's three-level lookup (in-process memo,
persistent disk cache, fresh simulation), and whole experiment grids
can be pre-fetched in parallel with :meth:`Runner.prefetch`.
"""

from __future__ import annotations

from repro.engine import Engine
from repro.timing import RunStats


class Runner:
    """Runs timing simulations via the engine."""

    def __init__(self, seed: int = 0, engine: Engine | None = None,
                 jobs: int = 1, cache_dir=None, use_cache: bool = True,
                 backend=None):
        if engine is not None:
            self.engine = engine
        else:
            self.engine = Engine(seed=seed, jobs=jobs, cache_dir=cache_dir,
                                 use_cache=use_cache, backend=backend)
        self.seed = self.engine.seed

    def run(self, benchmark: str, coding: str, memsys: str = "vector",
            l2_latency: int = 20, warm: bool = True,
            overrides=()) -> RunStats:
        """Simulate one configuration; memo- and disk-cached.

        ``memsys`` is one of ``ideal``, ``vector``, ``multibank``.
        ``coding`` picks both the trace and the processor model
        (``mmx`` / ``mom`` / ``mom3d``).  ``overrides`` passes extra
        configuration pairs through to the spec — including
        ``("timing_model", "reference")`` to pin the scalar oracle
        pipeline instead of the default batched one.
        """
        return self.engine.run(self.engine.spec(
            benchmark, coding, memsys, l2_latency, warm,
            overrides=overrides))

    def prefetch(self, specs) -> None:
        """Resolve a grid of specs up front, in one dispatch.

        Experiments call this with their full grid so the engine's
        backend sees every uncached point at once (and can spread them
        over its pool); subsequent ``run()`` calls are then pure memo
        hits.
        """
        self.engine.run_many(specs)

    def slowdown(self, benchmark: str, coding: str, memsys: str,
                 l2_latency: int = 20) -> float:
        """Cycles relative to the ideal-memory MOM run (paper baseline).

        The baseline is requested at the *same* ``l2_latency`` as the
        measured run, so numerator and denominator always describe the
        same machine except for the memory system under test.  The
        ideal memory system ignores the L2 latency by construction
        (1-cycle, unbounded bandwidth), so the engine canonicalizes all
        ideal-memory specs to a single cached baseline simulation —
        asking for the baseline "at 40 cycles" costs nothing extra.
        """
        baseline = self.run(benchmark, "mom", "ideal", l2_latency).cycles
        return self.run(benchmark, coding, memsys, l2_latency).cycles \
            / baseline
