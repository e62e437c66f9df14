"""Timing-model entry points.

The timing layer ships two formulations of the same out-of-order
model:

* :class:`~repro.timing.batched.BatchedPipeline` — the default.  A
  pre-decode pass lowers the trace to struct-of-arrays, then one
  scalar walk (``BatchedPipeline._walk``) schedules the decoded rows
  in program order with the resource bookkeeping inlined.
* :class:`~repro.timing.reference.ReferencePipeline` — the original
  per-instruction walk, kept as the differential test oracle.

``simulate`` dispatches to the batched model unless told otherwise;
the two produce bit-identical :class:`RunStats` on every paper grid
point (enforced by ``tests/test_timing_differential.py``).  The grid
path (:mod:`repro.timing.grid`) computes the same schedule a third
way, for many configurations of one trace, in ``_schedule_lean``.  The
modeling rationale (what the approximation preserves of the paper's
measurements) is documented on :mod:`repro.timing.reference`; the
batching design is documented in ``docs/timing.md``.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.isa.instructions import Program
from repro.timing.batched import BatchedPipeline
from repro.timing.config import MemSysConfig, ProcessorConfig
from repro.timing.reference import ReferencePipeline
from repro.timing.stats import RunStats

#: Selectable timing models (the ``timing_model`` RunSpec override).
TIMING_MODELS = {
    "batched": BatchedPipeline,
    "reference": ReferencePipeline,
}
DEFAULT_TIMING_MODEL = "batched"

#: The default pipeline implementation (public alias).
Pipeline = BatchedPipeline


def simulate(program: Program, proc: ProcessorConfig,
             memsys: MemSysConfig, warm: bool = True,
             model: str | None = None) -> RunStats:
    """Build a pipeline, run the trace, return stats.

    ``model`` picks the implementation: ``"batched"`` (default) or
    ``"reference"`` — both compute the identical schedule.
    """
    name = DEFAULT_TIMING_MODEL if model is None else model
    try:
        pipeline_cls = TIMING_MODELS[name]
    except KeyError:
        raise ConfigError(
            f"unknown timing model {name!r}; expected one of "
            f"{tuple(TIMING_MODELS)}") from None
    return pipeline_cls(proc, memsys).run(program, warm=warm)
