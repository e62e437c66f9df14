"""The five Mediabench-style workloads in MMX / MOM / MOM+3D codings.

Use :func:`benchmark_names` to enumerate the benchmarks and
:func:`get_benchmark` to build one; a benchmark's trace generator is
imported on first use.
"""

from repro.workloads.base import (
    CODINGS,
    Benchmark,
    BuiltWorkload,
    benchmark_names,
    get_benchmark,
)

__all__ = [
    "Benchmark", "BuiltWorkload", "CODINGS", "benchmark_names",
    "get_benchmark",
]
