"""Opcode definitions for the MMX / MOM / 3D instruction repertoire.

The set below is the subset of the 121-instruction MOM ISA (plus the two
3D-extension instructions this paper introduces) that the five media
workloads exercise.  Each opcode carries an :class:`ExecClass` that tells
the timing model which pipeline resource executes it.
"""

from __future__ import annotations

import enum


class ExecClass(enum.Enum):
    """Pipeline resource class an opcode executes on."""

    # Members are singletons compared by identity, so the C-level
    # identity hash agrees with equality and skips Enum's Python-level
    # ``hash(self._name_)``.
    __hash__ = object.__hash__

    INT = "int"  # scalar integer ALU
    SIMD = "simd"  # uSIMD / MOM functional unit (per-lane ops)
    MEM = "mem"  # scalar memory access (through L1)
    VMEM = "vmem"  # 2D vector memory access (vector port)
    V3DLOAD = "v3dload"  # 3D vector load (vector port, line mode)
    V3DMOVE = "v3dmove"  # 3D register file -> MOM register transfer
    CTRL = "ctrl"  # control register writes (setvl etc.)
    BRANCH = "branch"  # branches (fetch-slot consumers)


class Opcode(enum.Enum):
    """Every instruction opcode known to the simulator."""

    __hash__ = object.__hash__  # identity hash, as for ExecClass

    # --- scalar integer ---------------------------------------------------
    LI = "li"  # dst <- imm
    MOV = "mov"  # dst <- src
    ADD = "add"  # dst <- src0 + src1
    ADDI = "addi"  # dst <- src0 + imm
    SUB = "sub"  # dst <- src0 - src1
    MUL = "mul"  # dst <- src0 * src1
    SLT = "slt"  # dst <- 1 if src0 < src1 else 0 (signed)
    CMOV = "cmov"  # dst <- src1 if src0 != 0 else dst
    NOP = "nop"
    BRANCH = "branch"  # loop back-edge / exit marker (no functional effect)

    # --- control ----------------------------------------------------------
    SETVL = "setvl"  # vl <- imm
    CLRACC = "clracc"  # acc <- 0
    MOVACC = "movacc"  # scalar dst <- low 64 bits of acc
    MOVD = "movd"  # scalar dst <- element 0 of a vector register

    # --- scalar memory ----------------------------------------------------
    LD = "ld"  # scalar dst <- mem64[ea]
    ST = "st"  # mem64[ea] <- scalar src

    # --- uSIMD computation (per 64-bit element, replicated VL times) ------
    PADDB = "paddb"
    PADDW = "paddw"
    PADDD = "paddd"
    PADDSW = "paddsw"
    PADDUSB = "paddusb"
    PSUBB = "psubb"
    PSUBW = "psubw"
    PSUBSW = "psubsw"
    PSUBUSB = "psubusb"
    PAVGB = "pavgb"
    PSADBW = "psadbw"
    PMULLW = "pmullw"
    PMULHW = "pmulhw"
    PMULHRS = "pmulhrs"  # (a*b + 2^14) >> 15, saturated (SSSE3-style)
    PMADDWD = "pmaddwd"
    PSRAW = "psraw"
    PSRAD = "psrad"
    PSLLW = "psllw"
    PSRLQ = "psrlq"  # logical right shift of the whole 64-bit word
    PSLLQ = "psllq"  # logical left shift of the whole 64-bit word
    PAND = "pand"
    POR = "por"
    PACKSSDW = "packssdw"
    PACKUSWB = "packuswb"
    PUNPCKLBW = "punpcklbw"  # interleave low bytes of a and b
    PUNPCKHBW = "punpckhbw"  # interleave high bytes of a and b
    PUNPCKLBZ = "punpcklbz"  # zero-extend low 4 bytes to 4 x i16
    PUNPCKHBZ = "punpckhbz"  # zero-extend high 4 bytes to 4 x i16
    SPLATLANE = "splatlane"  # broadcast i16 lane #imm within each element
    VBCAST64 = "vbcast64"  # broadcast a 64-bit immediate to all elements

    # --- accumulator reductions (across elements and lanes) ---------------
    VPSADACC = "vpsadacc"  # acc += sum over elements of SAD(u8 lanes)
    VPMADDACC = "vpmaddacc"  # acc += sum over elements/lanes of a*b (i16)

    # --- 2D (MOM) vector memory -------------------------------------------
    VLD = "vld"  # v[k] <- mem64[ea + k*stride], k < VL
    VST = "vst"  # mem64[ea + k*stride] <- v[k], k < VL

    # --- 3D extension (the paper's new instructions) -----------------------
    DVLOAD3 = "dvload3"  # d[k] <- mem[ea + k*stride .. +W words], k < VL
    DVMOV3 = "dvmov3"  # v[k] <- d[k][ptr .. ptr+8); ptr += pstride


#: Maps each opcode to the pipeline resource that executes it.
EXEC_CLASS: dict[Opcode, ExecClass] = {
    Opcode.LI: ExecClass.INT,
    Opcode.MOV: ExecClass.INT,
    Opcode.ADD: ExecClass.INT,
    Opcode.ADDI: ExecClass.INT,
    Opcode.SUB: ExecClass.INT,
    Opcode.MUL: ExecClass.INT,
    Opcode.SLT: ExecClass.INT,
    Opcode.CMOV: ExecClass.INT,
    Opcode.NOP: ExecClass.INT,
    Opcode.BRANCH: ExecClass.BRANCH,
    Opcode.SETVL: ExecClass.CTRL,
    Opcode.CLRACC: ExecClass.CTRL,
    Opcode.MOVACC: ExecClass.INT,
    Opcode.MOVD: ExecClass.INT,
    Opcode.LD: ExecClass.MEM,
    Opcode.ST: ExecClass.MEM,
    Opcode.VLD: ExecClass.VMEM,
    Opcode.VST: ExecClass.VMEM,
    Opcode.DVLOAD3: ExecClass.V3DLOAD,
    Opcode.DVMOV3: ExecClass.V3DMOVE,
}

# All uSIMD computation opcodes execute on the SIMD pipe.
_SIMD_OPS = (
    Opcode.PADDB, Opcode.PADDW, Opcode.PADDD, Opcode.PADDSW,
    Opcode.PADDUSB, Opcode.PSUBB, Opcode.PSUBW, Opcode.PSUBSW,
    Opcode.PSUBUSB, Opcode.PAVGB, Opcode.PSADBW, Opcode.PMULLW,
    Opcode.PMULHW, Opcode.PMULHRS, Opcode.PMADDWD, Opcode.PSRAW,
    Opcode.PSRAD, Opcode.PSLLW, Opcode.PSRLQ, Opcode.PSLLQ,
    Opcode.PAND, Opcode.POR, Opcode.PACKSSDW, Opcode.PACKUSWB,
    Opcode.PUNPCKLBW, Opcode.PUNPCKHBW,
    Opcode.PUNPCKLBZ, Opcode.PUNPCKHBZ, Opcode.SPLATLANE,
    Opcode.VBCAST64, Opcode.VPSADACC, Opcode.VPMADDACC,
)
EXEC_CLASS.update({op: ExecClass.SIMD for op in _SIMD_OPS})

#: uSIMD opcodes that take two vector source operands.
TWO_SOURCE_SIMD = frozenset(
    op for op in _SIMD_OPS
    if op not in (
        Opcode.PSRAW, Opcode.PSRAD, Opcode.PSLLW, Opcode.PSRLQ,
        Opcode.PSLLQ, Opcode.SPLATLANE,
        Opcode.PUNPCKLBZ, Opcode.PUNPCKHBZ, Opcode.VBCAST64,
    )
)

#: Opcodes that read or write simulated memory.
MEMORY_OPS = frozenset(
    (Opcode.LD, Opcode.ST, Opcode.VLD, Opcode.VST, Opcode.DVLOAD3)
)

#: Memory opcodes that write to memory.
STORE_OPS = frozenset((Opcode.ST, Opcode.VST))
