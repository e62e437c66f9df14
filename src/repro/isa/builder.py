"""Fluent builder for instruction traces.

Workload generators use :class:`ProgramBuilder` as a tiny assembler: one
method per opcode, with the current vector length tracked so MOM
instructions pick it up implicitly (mirroring the architectural VL
register).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.errors import IsaError
from repro.isa.datatypes import ElemType
from repro.isa.instructions import Instruction, Program
from repro.isa.opcodes import Opcode
from repro.isa.registers import VL, Register


class ProgramBuilder:
    """Builds a :class:`Program` one instruction at a time."""

    def __init__(self, name: str = ""):
        self.program = Program(name=name)
        self._vl = 1
        self._tag = ""

    # -- bookkeeping -------------------------------------------------------

    @property
    def vl(self) -> int:
        """Current vector length (contents of the VL register)."""
        return self._vl

    @contextmanager
    def tagged(self, tag: str):
        """Attribute all instructions emitted inside to kernel ``tag``."""
        prev, self._tag = self._tag, tag
        try:
            yield self
        finally:
            self._tag = prev

    def _emit(self, op: Opcode, **kw) -> Instruction:
        inst = Instruction(op=op, tag=self._tag, **kw)
        self.program.append(inst)
        return inst

    # -- scalar ------------------------------------------------------------

    def li(self, dst: Register, imm: int):
        """dst <- imm"""
        self._emit(Opcode.LI, dsts=(dst,), imm=imm)

    def mov(self, dst: Register, src: Register):
        """dst <- src"""
        self._emit(Opcode.MOV, dsts=(dst,), srcs=(src,))

    def add(self, dst: Register, a: Register, b: Register):
        """dst <- a + b"""
        self._emit(Opcode.ADD, dsts=(dst,), srcs=(a, b))

    def addi(self, dst: Register, a: Register, imm: int):
        """dst <- a + imm"""
        self._emit(Opcode.ADDI, dsts=(dst,), srcs=(a,), imm=imm)

    def sub(self, dst: Register, a: Register, b: Register):
        """dst <- a - b"""
        self._emit(Opcode.SUB, dsts=(dst,), srcs=(a, b))

    def mul(self, dst: Register, a: Register, b: Register):
        """dst <- a * b"""
        self._emit(Opcode.MUL, dsts=(dst,), srcs=(a, b))

    def slt(self, dst: Register, a: Register, b: Register):
        """dst <- 1 if a < b else 0 (signed compare)"""
        self._emit(Opcode.SLT, dsts=(dst,), srcs=(a, b))

    def cmov(self, dst: Register, cond: Register, src: Register):
        """dst <- src if cond != 0 else dst (dst is read and written)"""
        self._emit(Opcode.CMOV, dsts=(dst,), srcs=(cond, src, dst))

    def branch(self):
        """Loop back-edge marker (consumes a fetch slot, no side effect)."""
        self._emit(Opcode.BRANCH)

    def nop(self):
        self._emit(Opcode.NOP)

    # -- control -----------------------------------------------------------

    def setvl(self, n: int):
        """VL <- n (affects subsequent vector instructions)."""
        if not 1 <= n <= 16:
            raise IsaError(f"setvl: length {n} out of range 1..16")
        self._vl = n
        self._emit(Opcode.SETVL, dsts=(VL,), imm=n)

    def clracc(self, a: Register):
        """acc <- 0"""
        self._emit(Opcode.CLRACC, dsts=(a,))

    def movacc(self, dst: Register, a: Register):
        """scalar dst <- low 64 bits of accumulator"""
        self._emit(Opcode.MOVACC, dsts=(dst,), srcs=(a,))

    def movd(self, dst: Register, src: Register):
        """scalar dst <- element 0 of vector register src (MMX movd)"""
        self._emit(Opcode.MOVD, dsts=(dst,), srcs=(src,))

    # -- scalar memory -------------------------------------------------------

    def ld(self, dst: Register, ea: int, base: Register | None = None):
        """scalar dst <- mem64[ea]"""
        srcs = (base,) if base is not None else ()
        self._emit(Opcode.LD, dsts=(dst,), srcs=srcs, ea=ea)

    def st(self, src: Register, ea: int, base: Register | None = None):
        """mem64[ea] <- scalar src"""
        srcs = (src, base) if base is not None else (src,)
        self._emit(Opcode.ST, srcs=srcs, ea=ea)

    # -- uSIMD --------------------------------------------------------------

    def simd(self, op: Opcode, dst: Register, a: Register,
             b: Register | None = None, *, etype: ElemType,
             imm: int | None = None):
        """Generic two/one source uSIMD operation at the current VL."""
        srcs = (a,) if b is None else (a, b)
        self._emit(op, dsts=(dst,), srcs=srcs, etype=etype,
                   imm=imm, vl=self._vl)

    def splatlane(self, dst: Register, src: Register, lane: int):
        """Within each element, broadcast i16 lane ``lane`` to all lanes."""
        if not 0 <= lane < 4:
            raise IsaError("splatlane: lane must be 0..3")
        self.simd(Opcode.SPLATLANE, dst, src, etype=ElemType.I16, imm=lane)

    def vbcast64(self, dst: Register, pattern: int):
        """Broadcast 64-bit ``pattern`` to all VL elements of dst."""
        self._emit(Opcode.VBCAST64, dsts=(dst,),
                   imm=pattern & 0xFFFF_FFFF_FFFF_FFFF,
                   etype=ElemType.I16, vl=self._vl)

    def vpsadacc(self, a: Register, x: Register, y: Register):
        """acc += sum over elements of SAD(x, y) (u8 lanes)."""
        self._emit(Opcode.VPSADACC, dsts=(a,), srcs=(x, y, a),
                   etype=ElemType.U8, vl=self._vl)

    def vpmaddacc(self, a: Register, x: Register, y: Register):
        """acc += sum over elements/lanes of x*y (i16 pairs)."""
        self._emit(Opcode.VPMADDACC, dsts=(a,), srcs=(x, y, a),
                   etype=ElemType.I16, vl=self._vl)

    # -- vector memory -------------------------------------------------------

    def vld(self, dst: Register, ea: int, stride: int,
            base: Register | None = None, vl: int | None = None,
            etype: ElemType | None = None):
        """dst[k] <- mem64[ea + k*stride] for k < VL.

        ``etype`` annotates the packed type of the loaded data; it has
        no functional effect but feeds the per-dimension vector-length
        statistics (paper Table 1).
        """
        srcs = (base,) if base is not None else ()
        self._emit(Opcode.VLD, dsts=(dst,), srcs=srcs, ea=ea,
                   stride=stride, etype=etype,
                   vl=vl if vl is not None else self._vl)

    def vst(self, src: Register, ea: int, stride: int,
            base: Register | None = None, vl: int | None = None,
            etype: ElemType | None = None):
        """mem64[ea + k*stride] <- src[k] for k < VL."""
        srcs = (src, base) if base is not None else (src,)
        self._emit(Opcode.VST, srcs=srcs, ea=ea, stride=stride,
                   etype=etype, vl=vl if vl is not None else self._vl)

    # -- 3D extension --------------------------------------------------------

    def dvload3(self, dst: Register, ea: int, stride: int, wwords: int,
                back: bool = False, base: Register | None = None,
                vl: int | None = None, etype: ElemType | None = None):
        """3D vector load (the paper's new ``dvload3``).

        Loads ``wwords`` 64-bit words starting at ``ea + k*stride`` into
        element ``k`` of 3D register ``dst``, for ``k < VL``.  The 3D
        pointer is initialized to 0, or to the end of the element if
        ``back`` is set.
        """
        srcs = (base,) if base is not None else ()
        self._emit(Opcode.DVLOAD3, dsts=(dst,), srcs=srcs, ea=ea,
                   stride=stride, wwords=wwords, back=back, etype=etype,
                   vl=vl if vl is not None else self._vl)

    def dvmov3(self, dst: Register, src3d: Register, pstride: int,
               vl: int | None = None):
        """3D vector move (the paper's new ``dvmov3``).

        For each element ``k < VL``, extract the 64-bit sub-block of 3D
        register ``src3d`` element ``k`` starting at the current pointer
        byte offset, into element ``k`` of MOM register ``dst``.  The
        pointer is then advanced by ``pstride`` bytes (may be negative).
        """
        self._emit(Opcode.DVMOV3, dsts=(dst,), srcs=(src3d,),
                   pstride=pstride, vl=vl if vl is not None else self._vl)
