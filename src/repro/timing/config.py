"""Processor and memory-system configurations (paper Table 2 / Sec. 5.3).

Two processor models share the same core (8-way fetch, 128-entry
graduation window, 32-entry load/store queue, 4 integer units):

* **MMX-style**: 4 SIMD issue slots and 4 one-word SIMD units, media
  loads through 4 L1 ports.  Deliberately aggressive so the comparison
  with MOM is not unfair (paper Sec. 5.3).
* **MOM**: 1 SIMD issue slot feeding a single 4-lane SIMD unit (same
  aggregate throughput), 2 scalar L1 ports, and one vector port into
  the L2.  The MOM+3D variant adds the 3D register file datapath.

Memory-system configurations choose the vector-port design and the L2
latency (Fig. 10 sweeps the latter).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.errors import ConfigError, require_positive
from repro.isa.opcodes import Opcode
from repro.memsys.hierarchy import HierarchyConfig

if TYPE_CHECKING:
    from repro.memsys import CacheHierarchy, L1Port, VectorPort

#: Operation latencies in cycles (MMX-era pipeline depths).
OP_LATENCY: dict[Opcode, int] = {
    Opcode.MUL: 3,
    Opcode.PMULLW: 3,
    Opcode.PMULHW: 3,
    Opcode.PMULHRS: 3,
    Opcode.PMADDWD: 3,
    Opcode.VPSADACC: 4,
    Opcode.VPMADDACC: 4,
    Opcode.PSADBW: 3,
    Opcode.MOVACC: 2,
}
#: Default latency for opcodes not in OP_LATENCY (by class: int/simd 1/2).
DEFAULT_INT_LATENCY = 1
DEFAULT_SIMD_LATENCY = 2


@dataclass(frozen=True)
class ProcessorConfig:
    """Core pipeline parameters (paper Table 2)."""

    name: str
    isa: str  # 'mmx' | 'mom' | 'mom3d'
    fetch_width: int = 8
    decode_depth: int = 3
    window: int = 128
    lsq: int = 32
    retire_width: int = 8
    int_issue: int = 4
    int_fus: int = 4
    simd_issue: int = 4
    simd_fus: int = 4
    simd_lanes: int = 1
    mem_issue: int = 4
    l1_ports: int = 4
    branch_bubble: int = 1
    #: rename headroom: physical minus logical registers per class
    extra_vector_regs: int = 48  # MMX: 80 physical - 32 logical
    extra_d3_regs: int = 2
    extra_ptr_regs: int = 6
    d3_move_latency: int = 3
    d3_move_lanes: int = 4

    def __post_init__(self) -> None:
        if self.isa not in ("mmx", "mom", "mom3d"):
            raise ConfigError(f"unknown isa style {self.isa!r}")
        # latencies, decode_depth and branch_bubble are not range-checked
        require_positive(self, (
            "fetch_width", "window", "lsq", "retire_width", "int_issue",
            "int_fus", "simd_issue", "simd_fus", "simd_lanes",
            "mem_issue", "l1_ports", "extra_vector_regs",
            "extra_d3_regs", "extra_ptr_regs", "d3_move_lanes"))


def mmx_processor() -> ProcessorConfig:
    """The aggressive MMX-style configuration (Table 2, left column)."""
    return ProcessorConfig(
        name="mmx", isa="mmx", simd_issue=4, simd_fus=4, simd_lanes=1,
        mem_issue=4, l1_ports=4, extra_vector_regs=48)


def mom_processor() -> ProcessorConfig:
    """The MOM configuration (Table 2, right column)."""
    return ProcessorConfig(
        name="mom", isa="mom", simd_issue=1, simd_fus=1, simd_lanes=4,
        mem_issue=2, l1_ports=2, extra_vector_regs=20)  # 36 phys - 16 log


def mom3d_processor() -> ProcessorConfig:
    """MOM plus the 3D vector register file extension."""
    return replace(mom_processor(), name="mom3d", isa="mom3d")


@dataclass(frozen=True)
class MemSysConfig:
    """Which vector-port design backs the L2, and hierarchy geometry."""

    name: str
    kind: str  # 'ideal' | 'vector' | 'multibank'
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    vc_width_words: int = 4
    mb_ports: int = 4
    mb_banks: int = 8

    def __post_init__(self) -> None:
        if self.kind not in ("ideal", "vector", "multibank"):
            raise ConfigError(f"unknown memory system kind {self.kind!r}")
        require_positive(self, ("vc_width_words", "mb_ports", "mb_banks"))

    def build(self) -> tuple[CacheHierarchy, VectorPort, L1Port]:
        """Instantiate fresh hierarchy + ports for one simulation run."""
        from repro.memsys import (
            CacheHierarchy,
            IdealL1Port,
            IdealPort,
            L1Port,
            MultiBankedPort,
            VectorCachePort,
        )

        hierarchy = CacheHierarchy(self.hierarchy)
        if self.kind == "ideal":
            vector_port: VectorPort = IdealPort(hierarchy)
            l1: L1Port = IdealL1Port(hierarchy)
        elif self.kind == "vector":
            vector_port = VectorCachePort(hierarchy, self.vc_width_words)
            l1 = L1Port(hierarchy, n_ports=4)
        else:
            vector_port = MultiBankedPort(hierarchy, self.mb_ports,
                                          self.mb_banks)
            l1 = L1Port(hierarchy, n_ports=4)
        return hierarchy, vector_port, l1


def ideal_memsys() -> MemSysConfig:
    """Perfect cache: 1-cycle latency, unbounded bandwidth."""
    hier = HierarchyConfig(l2_latency=1, mem_latency=0, l1_latency=1)
    return MemSysConfig(name="ideal", kind="ideal", hierarchy=hier)


def vector_memsys(l2_latency: int = 20) -> MemSysConfig:
    """Vector cache: one port of 4x64 bits into the L2."""
    hier = HierarchyConfig(l2_latency=l2_latency)
    name = "vector" if l2_latency == 20 else f"vector-l{l2_latency}"
    return MemSysConfig(name=name, kind="vector", hierarchy=hier)


def multibank_memsys(l2_latency: int = 20) -> MemSysConfig:
    """Multi-banked cache: 4 ports x 8 banks behind a crossbar."""
    hier = HierarchyConfig(l2_latency=l2_latency)
    name = "multibank" if l2_latency == 20 else f"multibank-l{l2_latency}"
    return MemSysConfig(name=name, kind="multibank", hierarchy=hier)


#: Registry used by the harness and CLI.
PROCESSORS = {
    "mmx": mmx_processor,
    "mom": mom_processor,
    "mom3d": mom3d_processor,
}

MEMSYSTEMS = {
    "ideal": ideal_memsys,
    "vector": vector_memsys,
    "multibank": multibank_memsys,
}
