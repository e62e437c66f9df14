"""The trace-level instruction record and program container.

The simulator is trace driven, mirroring the paper's ATOM-based
methodology: workload generators emit the *dynamic* instruction stream
(loops fully unrolled along the executed path), and memory instructions
carry their concrete effective addresses.  Register names are still
recorded so the timing model can track true data dependences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IsaError
from repro.isa.datatypes import ElemType
from repro.isa.opcodes import EXEC_CLASS, MEMORY_OPS, ExecClass, Opcode
from repro.isa.registers import Register


@dataclass(frozen=True)
class Instruction:
    """One dynamic instruction.

    Fields that do not apply to a given opcode are left at their
    defaults; :meth:`validate` enforces the per-opcode requirements.

    Attributes:
        op: The opcode.
        dsts: Destination registers (written).
        srcs: Source registers (read).
        imm: Immediate operand (LI/ADDI/shift counts/lane index/64-bit
            broadcast pattern).
        etype: Packed element type for uSIMD operations.
        vl: Vector length at trace time (1 for scalar and MMX-mode ops).
        ea: Effective address for memory operations.
        stride: Byte stride between vector elements (VLD/VST/DVLOAD3).
        wwords: DVLOAD3 element width in 64-bit words (1..16).
        back: DVLOAD3 flag -- initialize the 3D pointer at the *end* of
            the element (for walking the third dimension backwards).
        pstride: DVMOV3 signed pointer stride in bytes.
        tag: Optional kernel label used for statistics attribution.
    """

    op: Opcode
    dsts: tuple[Register, ...] = ()
    srcs: tuple[Register, ...] = ()
    imm: int | None = None
    etype: ElemType | None = None
    vl: int = 1
    ea: int | None = None
    stride: int | None = None
    wwords: int | None = None
    back: bool = False
    pstride: int | None = None
    tag: str = ""

    @property
    def exec_class(self) -> ExecClass:
        """Pipeline resource class for this instruction."""
        return EXEC_CLASS[self.op]

    @property
    def is_memory(self) -> bool:
        """True if the instruction touches simulated memory."""
        return self.op in MEMORY_OPS

    def validate(self) -> None:
        """Raise :class:`IsaError` if required fields are missing."""
        if self.is_memory and self.ea is None:
            raise IsaError(f"{self.op.value}: memory op requires ea")
        if self.op in (Opcode.VLD, Opcode.VST, Opcode.DVLOAD3):
            if self.stride is None:
                raise IsaError(f"{self.op.value}: requires stride")
            if not 1 <= self.vl <= 16:
                raise IsaError(f"{self.op.value}: vl must be 1..16")
        if self.op is Opcode.DVLOAD3:
            if self.wwords is None or not 1 <= self.wwords <= 16:
                raise IsaError("dvload3: wwords must be 1..16")
        if self.op is Opcode.DVMOV3 and self.pstride is None:
            raise IsaError("dvmov3: requires pstride")

    def __repr__(self) -> str:
        parts = [self.op.value]
        if self.dsts:
            parts.append(",".join(map(repr, self.dsts)))
        if self.srcs:
            parts.append(",".join(map(repr, self.srcs)))
        if self.imm is not None:
            parts.append(f"#{self.imm}")
        if self.ea is not None:
            parts.append(f"@{self.ea:#x}")
        if self.stride is not None:
            parts.append(f"s={self.stride}")
        if self.vl != 1:
            parts.append(f"vl={self.vl}")
        return " ".join(parts)


@dataclass
class Program:
    """A dynamic instruction trace plus its data segment layout."""

    instructions: list[Instruction] = field(default_factory=list)
    #: Human-readable name (workload + coding), used in reports.
    name: str = ""
    #: Mutation counter: bumped by :meth:`append`/:meth:`extend` so
    #: per-program memos (the timing layer's pre-decode cache) can
    #: detect that a trace grew after it was lowered.
    version: int = field(default=0, repr=False, compare=False)

    def append(self, inst: Instruction) -> None:
        """Validate and append one instruction."""
        inst.validate()
        self.instructions.append(inst)
        self.version += 1

    def extend(self, insts: list[Instruction]) -> None:
        """Validate and append several instructions."""
        for inst in insts:
            self.append(inst)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def count_by_class(self) -> dict[ExecClass, int]:
        """Histogram of instructions per pipeline class."""
        hist: dict[ExecClass, int] = {}
        for inst in self.instructions:
            hist[inst.exec_class] = hist.get(inst.exec_class, 0) + 1
        return hist
