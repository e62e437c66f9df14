"""Binary encoding of instruction traces.

A compact, self-describing little-endian format so traces can be stored
on disk and replayed (the moral equivalent of the paper's ATOM trace
files).  The format is not meant to model real instruction bits; it is a
faithful serialization of :class:`~repro.isa.instructions.Instruction`.

Layout per record (little-endian):

========  =====  ==========================================
offset    size   field
========  =====  ==========================================
0         1      opcode ordinal
1         1      flags (bit0: back, bit1: has ea, bit2: has
                 stride, bit3: has imm, bit4: has pstride)
2         1      vl
3         1      etype ordinal + 1 (0 = none)
4         1      wwords (0 = none)
5         1      number of dsts
6         1      number of srcs
7         1      reserved (0)
8         2/reg  registers: class ordinal, index (dsts then srcs)
...       8      ea (if present)
...       8      stride, signed (if present)
...       8      imm, signed (if present)
...       8      pstride, signed (if present)
========  =====  ==========================================
"""

from __future__ import annotations

import struct

from repro.errors import IsaError
from repro.isa.datatypes import ElemType
from repro.isa.instructions import Instruction, Program
from repro.isa.opcodes import Opcode
from repro.isa.registers import RegClass, Register

_OPCODES = list(Opcode)
_ETYPES = list(ElemType)
_RCLASSES = list(RegClass)

_FLAG_BACK = 1
_FLAG_EA = 2
_FLAG_STRIDE = 4
_FLAG_IMM = 8
_FLAG_PSTRIDE = 16
#: flags announcing an 8-byte operand in the record's tail
_OPERAND_FLAGS = _FLAG_EA | _FLAG_STRIDE | _FLAG_IMM | _FLAG_PSTRIDE


def encode_instruction(inst: Instruction) -> bytes:
    """Serialize one instruction to bytes."""
    flags = 0
    if inst.back:
        flags |= _FLAG_BACK
    if inst.ea is not None:
        flags |= _FLAG_EA
    if inst.stride is not None:
        flags |= _FLAG_STRIDE
    if inst.imm is not None:
        flags |= _FLAG_IMM
    if inst.pstride is not None:
        flags |= _FLAG_PSTRIDE

    etype_ord = 0 if inst.etype is None else _ETYPES.index(inst.etype) + 1
    head = struct.pack(
        "<8B", _OPCODES.index(inst.op), flags, inst.vl, etype_ord,
        inst.wwords or 0, len(inst.dsts), len(inst.srcs), 0,
    )
    regs = b"".join(
        struct.pack("<2B", _RCLASSES.index(reg.cls), reg.index)
        for reg in (*inst.dsts, *inst.srcs)
    )
    tail = b""
    if inst.ea is not None:
        tail += struct.pack("<Q", inst.ea)
    if inst.stride is not None:
        tail += struct.pack("<q", inst.stride)
    if inst.imm is not None:
        tail += struct.pack("<q", _to_signed64(inst.imm))
    if inst.pstride is not None:
        tail += struct.pack("<q", inst.pstride)
    return head + regs + tail


def decode_instruction(data: bytes, offset: int = 0) -> tuple[Instruction, int]:
    """Decode one instruction; returns (instruction, next offset)."""
    if len(data) - offset < 8:
        raise IsaError("truncated instruction record")
    (op_ord, flags, vl, etype_ord, wwords, ndst, nsrc, _reserved
     ) = struct.unpack_from("<8B", data, offset)
    offset += 8
    regs: list[Register] = []
    for _ in range(ndst + nsrc):
        cls_ord, index = struct.unpack_from("<2B", data, offset)
        regs.append(Register(_RCLASSES[cls_ord], index))
        offset += 2

    def read_q(fmt: str) -> int:
        nonlocal offset
        (value,) = struct.unpack_from(fmt, data, offset)
        offset += 8
        return value

    ea = read_q("<Q") if flags & _FLAG_EA else None
    stride = read_q("<q") if flags & _FLAG_STRIDE else None
    imm = read_q("<q") if flags & _FLAG_IMM else None
    pstride = read_q("<q") if flags & _FLAG_PSTRIDE else None

    inst = Instruction(
        op=_OPCODES[op_ord],
        dsts=tuple(regs[:ndst]),
        srcs=tuple(regs[ndst:]),
        imm=imm,
        etype=None if etype_ord == 0 else _ETYPES[etype_ord - 1],
        vl=vl,
        ea=ea,
        stride=stride,
        wwords=wwords or None,
        back=bool(flags & _FLAG_BACK),
        pstride=pstride,
    )
    return inst, offset


def encode_program(program: Program) -> bytes:
    """Serialize a whole program (name + instruction records)."""
    name = program.name.encode("utf-8")
    out = [struct.pack("<4sI", b"MOM3", len(name)), name,
           struct.pack("<I", len(program))]
    out.extend(encode_instruction(inst) for inst in program)
    return b"".join(out)


def decode_program(data: bytes) -> Program:
    """Inverse of :func:`encode_program`.

    Equal records decode to one shared :class:`Instruction`, as
    :class:`~repro.isa.builder.ProgramBuilder` emits them: each
    distinct record is decoded and validated once.
    """
    magic, name_len = struct.unpack_from("<4sI", data, 0)
    if magic != b"MOM3":
        raise IsaError("bad trace magic")
    offset = 8
    name = data[offset:offset + name_len].decode("utf-8")
    offset += name_len
    (count,) = struct.unpack_from("<I", data, offset)
    offset += 4
    program = Program(name=name)
    shared: dict[bytes, Instruction] = {}
    append = program.instructions.append
    for _ in range(count):
        end = _record_end(data, offset)
        record = data[offset:end]
        inst = shared.get(record)
        if inst is None:
            inst, _ = decode_instruction(data, offset)
            inst.validate()
            shared[record] = inst
        append(inst)
        offset = end
    program.version += count
    return program


def _record_end(data: bytes, offset: int) -> int:
    """Offset just past the record at ``offset``, read from its header."""
    if len(data) - offset < 8:
        raise IsaError("truncated instruction record")
    flags, ndst, nsrc = data[offset + 1], data[offset + 5], data[offset + 6]
    return (offset + 8 + 2 * (ndst + nsrc)
            + 8 * bin(flags & _OPERAND_FLAGS).count("1"))


def _to_signed64(value: int) -> int:
    value &= 0xFFFF_FFFF_FFFF_FFFF
    return value - (1 << 64) if value >= (1 << 63) else value
