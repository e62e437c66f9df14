"""Functional simulator: flat memory, machine state, exact uSIMD semantics."""

from repro.lazy import lazy_exports

# The trace generators lay out their data in ``vm.memory`` alone; the
# executor, the machine state and the uSIMD semantics load when a trace
# is executed.
__getattr__ = lazy_exports(__name__, {
    "repro.vm.executor": ("ExecStats", "Executor", "execute"),
    "repro.vm.memory": ("Arena", "FlatMemory"),
    "repro.vm.state": ("MachineState",),
})

__all__ = [
    "Arena", "ExecStats", "Executor", "FlatMemory", "MachineState",
    "execute",
]
