"""Out-of-order timing model and the paper's processor configurations."""

from repro.lazy import lazy_exports
from repro.timing.config import (
    MEMSYSTEMS,
    MemSysConfig,
    PROCESSORS,
    ProcessorConfig,
    ideal_memsys,
    mmx_processor,
    mom3d_processor,
    mom_processor,
    multibank_memsys,
    vector_memsys,
)
from repro.timing.stats import RunStats, VecLenStats

# The pipelines load on first access: they import numpy and the whole
# decode/schedule stack, which a cache hit never runs.
__getattr__ = lazy_exports(__name__, {
    "repro.timing.grid": ("GridPipeline",),
    "repro.timing.pipeline": ("DEFAULT_TIMING_MODEL", "TIMING_MODELS",
                              "BatchedPipeline", "Pipeline",
                              "ReferencePipeline", "simulate"),
})

__all__ = [
    "BatchedPipeline", "DEFAULT_TIMING_MODEL", "GridPipeline",
    "MEMSYSTEMS", "MemSysConfig", "PROCESSORS", "Pipeline",
    "ProcessorConfig", "ReferencePipeline", "RunStats",
    "TIMING_MODELS", "VecLenStats", "ideal_memsys", "mmx_processor",
    "mom3d_processor", "mom_processor", "multibank_memsys", "simulate",
    "vector_memsys",
]
