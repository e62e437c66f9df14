"""Workload abstractions: benchmarks, codings and the benchmark table.

Every benchmark can be generated in three codings, mirroring the
paper's methodology (Sec. 5.1):

* ``mmx`` — the 1D uSIMD baseline (one 64-bit word per instruction);
* ``mom`` — the 2D MOM vectorization;
* ``mom3d`` — MOM plus 3D memory instructions on the loops that
  qualify (paper criteria: a whole-cache-line fetch captures several
  MOM streams, or streams overlap enough to reuse at the 3D RF).

``jpeg_decode`` has no suitable 3-dimensional memory patterns (paper,
Sec. 5.1), so its ``mom3d`` coding is identical to ``mom``.
"""

from __future__ import annotations

import abc
import importlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigError
from repro.isa.instructions import Program

if TYPE_CHECKING:
    from repro.vm.memory import FlatMemory
    from repro.vm.state import MachineState

CODINGS = ("mmx", "mom", "mom3d")


@dataclass
class BuiltWorkload:
    """A generated trace plus everything needed to validate it."""

    name: str
    coding: str
    program: Program
    memory: FlatMemory
    #: called with (final state, mutated memory); raises on mismatch
    check: Callable[[MachineState, FlatMemory], None]
    #: human-readable notes about scaling / layout decisions
    notes: dict = field(default_factory=dict)

    def run_functional(self) -> MachineState:
        """Execute on the VM and validate against the reference."""
        from repro.vm.executor import Executor

        executor = Executor(self.memory)
        state = executor.run(self.program)
        self.check(state, self.memory)
        return state


class Benchmark(abc.ABC):
    """One Mediabench-style application."""

    #: benchmark-table key, e.g. "mpeg2_encode"
    name: str = ""
    #: False when the paper found no exploitable 3D patterns
    has_3d: bool = True

    def build(self, coding: str, seed: int = 0) -> BuiltWorkload:
        """Generate the instruction trace for one coding."""
        if coding not in CODINGS:
            raise ConfigError(f"unknown coding {coding!r}; "
                              f"expected one of {CODINGS}")
        if coding == "mom3d" and not self.has_3d:
            coding_to_build = "mom"
        else:
            coding_to_build = coding
        built = self._build(coding_to_build, seed)
        return BuiltWorkload(
            name=self.name, coding=coding,
            program=built.program, memory=built.memory,
            check=built.check, notes=built.notes)

    @abc.abstractmethod
    def _build(self, coding: str, seed: int) -> BuiltWorkload:
        """Generate for a concrete coding ('mmx', 'mom' or 'mom3d')."""


#: Every benchmark, in the paper's plot order: name -> (generator
#: module, class).  A generator (and numpy with it) is imported the
#: first time one of its benchmarks is built, so listing benchmarks or
#: serving a warm cache loads none.
_BENCHMARKS = {
    "jpeg_encode": ("repro.workloads.jpeg", "JpegEncode"),
    "jpeg_decode": ("repro.workloads.jpeg", "JpegDecode"),
    "mpeg2_decode": ("repro.workloads.mpeg2", "Mpeg2Decode"),
    "mpeg2_encode": ("repro.workloads.mpeg2", "Mpeg2Encode"),
    "gsm_encode": ("repro.workloads.gsm", "GsmEncode"),
}


def get_benchmark(name: str) -> Benchmark:
    """Instantiate a benchmark by name, importing its generator."""
    try:
        module, cls = _BENCHMARKS[name]
    except KeyError:
        raise ConfigError(
            f"unknown benchmark {name!r}; known: {sorted(_BENCHMARKS)}"
        ) from None
    return getattr(importlib.import_module(module), cls)()


def benchmark_names() -> list[str]:
    """All benchmark names, in the paper's plot order."""
    return list(_BENCHMARKS)
