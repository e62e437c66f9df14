"""Experiment harness: runner, per-figure/table experiments, reporting."""

from repro.harness.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    run_all,
)
from repro.harness.runner import Runner
from repro.harness.tables import Table


def run_workload(benchmark: str, isa: str = "mom3d",
                 memsys: str = "vector", l2_latency: int = 20):
    """One-call convenience API: simulate a benchmark configuration.

    Example::

        from repro.harness import run_workload
        stats = run_workload("mpeg2_encode", isa="mom3d")
        print(stats.summary())
    """
    runner = Runner()
    try:
        return runner.run(benchmark, isa, memsys, l2_latency)
    finally:
        runner.engine.close()


__all__ = [
    "EXPERIMENTS", "ExperimentResult", "Runner", "Table", "run_all",
    "run_workload",
]
