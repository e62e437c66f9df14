"""Serial in-process execution backend."""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.engine.keys import RunSpec
    from repro.timing.stats import RunStats


class InlineBackend:
    """Execute every spec serially on the calling thread.

    The zero-overhead baseline: no sharding, no serialization, no
    worker handoff.  Trace groups run through the grid-axis pipeline
    per the requested ``grid_mode``.  Counters are lock-guarded
    because one engine (and therefore one backend) may be shared by
    the service's executor threads.
    """

    name = "inline"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._dispatches = 0
        self._executed = 0

    def execute(self, specs: list[RunSpec], jobs: int | None = None,
                grid_mode: str = "auto") -> dict[RunSpec, RunStats]:
        from repro.engine.parallel import simulate_specs

        results = simulate_specs(specs, grid_mode=grid_mode)
        with self._lock:
            self._dispatches += 1
            self._executed += len(results)
        return results

    def counters(self) -> dict:
        with self._lock:
            return {"dispatches": self._dispatches,
                    "executed": self._executed}

    def close(self) -> None:
        pass
