"""repro — reproduction of "Three-Dimensional Memory Vectorization for
High Bandwidth Media Memory Systems" (Corbal, Espasa, Valero; MICRO-35,
2002).

The package implements the paper's 3D memory-vectorization mechanism on
top of a full stack of substrates: the MOM 2D vector ISA, a functional
simulator, an out-of-order timing model, the cache hierarchy with all
four vector-port designs, register-file area/power models, a prototype
vectorizing compiler, and the five Mediabench-style workloads in three
ISA codings.

Quickstart::

    from repro.harness import run_workload
    stats = run_workload("mpeg2_encode", isa="mom3d", memsys="vector")
    print(stats.cycles, stats.effective_bandwidth)
"""

__version__ = "1.0.0"

from repro.lazy import lazy_exports

# The ISA and VM names load on first access: the VM imports numpy, and
# no command reaches either through this package.
__getattr__ = lazy_exports(__name__, {
    "repro.isa": ("ElemType", "Instruction", "Opcode", "Program",
                  "ProgramBuilder", "acc", "d3", "r", "v"),
    "repro.vm": ("Arena", "Executor", "FlatMemory", "MachineState",
                 "execute"),
})

__all__ = [
    "Arena", "ElemType", "Executor", "FlatMemory", "Instruction",
    "MachineState", "Opcode", "Program", "ProgramBuilder", "acc", "d3",
    "execute", "r", "v",
]
