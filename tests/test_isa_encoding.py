"""Round-trip tests for the binary trace encoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IsaError
from repro.isa import ElemType, Instruction, Opcode, Program, d3, r, v
from repro.isa.encoding import (
    decode_instruction,
    decode_program,
    encode_instruction,
    encode_program,
)

SAMPLE_INSTRUCTIONS = [
    Instruction(op=Opcode.LI, dsts=(r(3),), imm=42),
    Instruction(op=Opcode.LI, dsts=(r(3),), imm=-42),
    Instruction(op=Opcode.ADD, dsts=(r(1),), srcs=(r(2), r(3))),
    Instruction(op=Opcode.VLD, dsts=(v(0),), ea=0x1000, stride=-64, vl=8),
    Instruction(op=Opcode.PADDB, dsts=(v(1),), srcs=(v(0), v(2)),
                etype=ElemType.U8, vl=16),
    Instruction(op=Opcode.DVLOAD3, dsts=(d3(0),), ea=0xFFFF_0000,
                stride=720, wwords=16, back=True, vl=8),
    Instruction(op=Opcode.DVMOV3, dsts=(v(5),), srcs=(d3(1),),
                pstride=-2, vl=10),
    Instruction(op=Opcode.PSRAW, dsts=(v(3),), srcs=(v(3),),
                etype=ElemType.I16, imm=5, vl=4),
]


@pytest.mark.parametrize("inst", SAMPLE_INSTRUCTIONS, ids=lambda i: i.op.value)
def test_instruction_roundtrip(inst):
    blob = encode_instruction(inst)
    back, consumed = decode_instruction(blob)
    assert consumed == len(blob)
    # tag is not serialized; compare everything else
    assert back == Instruction(**{**inst.__dict__, "tag": ""})


def test_program_roundtrip():
    program = Program(name="unit-test")
    for inst in SAMPLE_INSTRUCTIONS:
        program.append(inst)
    back = decode_program(encode_program(program))
    assert back.name == "unit-test"
    assert len(back) == len(program)
    for a, b in zip(program, back):
        assert a.op == b.op and a.ea == b.ea and a.vl == b.vl


def test_decode_program_shares_equal_records():
    program = Program(name="loop")
    for _ in range(4):
        program.extend(SAMPLE_INSTRUCTIONS[2:5])
    back = decode_program(encode_program(program))
    assert back.instructions == program.instructions
    assert back.version == len(back) == 12
    assert len({id(i) for i in back}) == len(set(back.instructions)) == 3
    assert all(back.instructions[k] is back.instructions[k % 3]
               for k in range(12))


def test_decode_program_rejects_out_of_range_vl():
    bad = Instruction(op=Opcode.PADDW, dsts=(v(0),), srcs=(v(1), v(2)),
                      etype=ElemType.I16, vl=0)
    blob = encode_program(Program(name="bad", instructions=[bad, bad]))
    with pytest.raises(IsaError, match="vl must be 1..16"):
        decode_program(blob)


def test_bad_magic_rejected():
    with pytest.raises(IsaError):
        decode_program(b"XXXX" + b"\x00" * 16)


def test_truncated_record_rejected():
    with pytest.raises(IsaError):
        decode_instruction(b"\x01\x02")


@given(
    st.integers(0, (1 << 48) - 1),
    st.integers(-(1 << 31), (1 << 31) - 1),
    st.integers(1, 16),
)
@settings(max_examples=50)
def test_vld_roundtrip_property(ea, stride, vl):
    inst = Instruction(op=Opcode.VLD, dsts=(v(0),), ea=ea,
                       stride=stride, vl=vl)
    back, _ = decode_instruction(encode_instruction(inst))
    assert back.ea == ea and back.stride == stride and back.vl == vl
