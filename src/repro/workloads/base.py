"""Workload abstractions: benchmarks, codings and the registry.

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
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigError
from repro.isa.instructions import Program
from repro.vm.executor import Executor
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
        executor = Executor(self.memory)
        state = executor.run(self.program)
        self.check(state, self.memory)
        return state


class Benchmark(abc.ABC):
    """One Mediabench-style application."""

    #: registry key, e.g. "mpeg2_encode"
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


_REGISTRY: dict[str, Callable[[], Benchmark]] = {}


def register(cls):
    """Class decorator: add a Benchmark to the global registry."""
    if not cls.name:
        raise ConfigError(f"benchmark class {cls.__name__} has no name")
    _REGISTRY[cls.name] = cls
    return cls


def get_benchmark(name: str) -> Benchmark:
    """Instantiate a registered benchmark by name."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ConfigError(
            f"unknown benchmark {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def benchmark_names() -> list[str]:
    """All registered benchmark names, in the paper's plot order."""
    order = ["jpeg_encode", "jpeg_decode", "mpeg2_decode", "mpeg2_encode",
             "gsm_encode"]
    known = [n for n in order if n in _REGISTRY]
    extras = sorted(set(_REGISTRY) - set(order))
    return known + extras
