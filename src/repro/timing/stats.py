"""Run statistics collected by the timing pipeline.

:class:`RunStats` (and every aggregate it contains) round-trips
losslessly through ``to_dict``/``from_dict``: the engine's on-disk
result cache and its worker processes ship statistics as plain JSON,
and equality of the reconstructed object with the original is part of
the engine test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.isa.opcodes import ExecClass, Opcode
from repro.memsys.ports import PortStats


@dataclass
class VecLenStats:
    """Per-dimension vector-length accounting (paper Table 1).

    * 1st dimension: uSIMD lanes per 64-bit word of vector memory
      instructions (8 for u8 data, 4 for i16 data).
    * 2nd dimension: the MOM vector length (elements per instruction).
    * 3rd dimension: slices served per 3D load, i.e. how many
      ``dvmov3`` transfers each ``dvload3`` feeds.
    """

    lane_sum: int = 0
    lane_count: int = 0
    vl_sum: int = 0
    vl_count: int = 0
    slices: int = 0
    loads3d: int = 0
    max_slices_per_load: int = 0
    _current_slices: dict[int, int] = field(default_factory=dict)

    def record_vector_memory(self, lanes: int, vl: int) -> None:
        self.lane_sum += lanes
        self.lane_count += 1
        self.vl_sum += vl
        self.vl_count += 1

    def record_dvload3(self, reg_index: int, lanes: int, vl: int) -> None:
        self.record_vector_memory(lanes, vl)
        self.loads3d += 1
        self._flush(reg_index)

    def record_dvmov3(self, reg_index: int) -> None:
        self.slices += 1
        self._current_slices[reg_index] = (
            self._current_slices.get(reg_index, 0) + 1)
        self.max_slices_per_load = max(
            self.max_slices_per_load, self._current_slices[reg_index])

    def _flush(self, reg_index: int) -> None:
        self._current_slices[reg_index] = 0

    def copy(self) -> VecLenStats:
        """An independent copy (its open-slice counts included)."""
        return replace(self, _current_slices=dict(self._current_slices))

    @property
    def dim1(self) -> float:
        """Average uSIMD lanes per word (1st dimension)."""
        return self.lane_sum / self.lane_count if self.lane_count else 0.0

    @property
    def dim2(self) -> float:
        """Average vector length (2nd dimension)."""
        return self.vl_sum / self.vl_count if self.vl_count else 0.0

    @property
    def dim3(self) -> float:
        """Average slices per 3D load (3rd dimension)."""
        return self.slices / self.loads3d if self.loads3d else 0.0

    def to_dict(self) -> dict:
        return {
            "lane_sum": self.lane_sum, "lane_count": self.lane_count,
            "vl_sum": self.vl_sum, "vl_count": self.vl_count,
            "slices": self.slices, "loads3d": self.loads3d,
            "max_slices_per_load": self.max_slices_per_load,
            "current_slices": {str(k): v
                               for k, v in self._current_slices.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VecLenStats":
        out = cls(
            lane_sum=data["lane_sum"], lane_count=data["lane_count"],
            vl_sum=data["vl_sum"], vl_count=data["vl_count"],
            slices=data["slices"], loads3d=data["loads3d"],
            max_slices_per_load=data["max_slices_per_load"])
        out._current_slices = {int(k): v
                               for k, v in data["current_slices"].items()}
        return out


@dataclass
class RunStats:
    """Everything a timing run reports."""

    name: str = ""
    cycles: int = 0
    instructions: int = 0
    by_class: dict[ExecClass, int] = field(default_factory=dict)
    by_opcode: dict[Opcode, int] = field(default_factory=dict)
    #: the vector (L2) port
    vector_port: PortStats = field(default_factory=PortStats)
    #: the scalar / MMX L1 path
    l1_port: PortStats = field(default_factory=PortStats)
    #: 64-bit words served out of the 3D register file by dvmov3
    rf3d_words: int = 0
    #: dvmov3 transfer count (3D RF read-port activity)
    rf3d_reads: int = 0
    #: dvload3 line writes into the 3D RF (write-port activity)
    rf3d_writes: int = 0
    veclen: VecLenStats = field(default_factory=VecLenStats)
    l2_hit_rate: float = 1.0
    coherence_events: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def effective_bandwidth(self) -> float:
        """Words per vector-port access (Fig. 6 metric)."""
        return self.vector_port.effective_bandwidth

    @property
    def cache_words(self) -> int:
        """64-bit words moved between the L2 and the core (Fig. 7)."""
        return self.vector_port.words

    @property
    def l2_activity(self) -> int:
        """L2 access count (Table 4 metric)."""
        return self.vector_port.cache_accesses

    def summary(self) -> str:
        return (f"{self.name}: {self.cycles} cycles, "
                f"{self.instructions} insts (IPC {self.ipc:.2f}), "
                f"eff-bw {self.effective_bandwidth:.2f} w/acc, "
                f"L2 activity {self.l2_activity}")

    def diff(self, other: "RunStats") -> dict:
        """Fields whose plain-data forms differ, as ``{field: (self
        value, other value)}`` — the differential test suite's error
        payload when the batched and reference pipelines disagree."""
        mine, theirs = self.to_dict(), other.to_dict()
        return {field: (mine[field], theirs[field])
                for field in mine if mine[field] != theirs[field]}

    def to_dict(self) -> dict:
        """Lossless plain-data form (JSON-serializable)."""
        return {
            "name": self.name,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "by_class": {k.value: v for k, v in self.by_class.items()},
            "by_opcode": {k.value: v for k, v in self.by_opcode.items()},
            "vector_port": _port_to_dict(self.vector_port),
            "l1_port": _port_to_dict(self.l1_port),
            "rf3d_words": self.rf3d_words,
            "rf3d_reads": self.rf3d_reads,
            "rf3d_writes": self.rf3d_writes,
            "veclen": self.veclen.to_dict(),
            "l2_hit_rate": self.l2_hit_rate,
            "coherence_events": self.coherence_events,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunStats":
        """Rebuild a RunStats equal to the one ``to_dict`` serialized."""
        return cls(
            name=data["name"],
            cycles=data["cycles"],
            instructions=data["instructions"],
            by_class={ExecClass(k): v
                      for k, v in data["by_class"].items()},
            by_opcode={Opcode(k): v for k, v in data["by_opcode"].items()},
            vector_port=_port_from_dict(data["vector_port"]),
            l1_port=_port_from_dict(data["l1_port"]),
            rf3d_words=data["rf3d_words"],
            rf3d_reads=data["rf3d_reads"],
            rf3d_writes=data["rf3d_writes"],
            veclen=VecLenStats.from_dict(data["veclen"]),
            l2_hit_rate=data["l2_hit_rate"],
            coherence_events=data["coherence_events"],
        )


def _port_to_dict(port: PortStats) -> dict:
    return {f.name: getattr(port, f.name) for f in fields(PortStats)}


def _port_from_dict(data: dict) -> PortStats:
    return PortStats(**data)
