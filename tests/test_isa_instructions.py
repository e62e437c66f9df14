"""Unit tests for instruction construction, validation and the builder."""

import pytest

from repro.errors import IsaError
from repro.isa import (
    ElemType,
    ExecClass,
    Instruction,
    Opcode,
    Program,
    ProgramBuilder,
    acc,
    r,
    v,
    d3,
)
from repro.isa.encoding import encode_program


def test_memory_instruction_requires_ea():
    inst = Instruction(op=Opcode.VLD, dsts=(v(0),), stride=8, vl=4)
    with pytest.raises(IsaError):
        inst.validate()


def test_vld_requires_stride():
    inst = Instruction(op=Opcode.VLD, dsts=(v(0),), ea=0x100, vl=4)
    with pytest.raises(IsaError):
        inst.validate()


def test_dvload3_wwords_range():
    bad = Instruction(op=Opcode.DVLOAD3, dsts=(d3(0),), ea=0, stride=8,
                      vl=4, wwords=17)
    with pytest.raises(IsaError):
        bad.validate()
    good = Instruction(op=Opcode.DVLOAD3, dsts=(d3(0),), ea=0, stride=8,
                       vl=4, wwords=16)
    good.validate()


def test_dvmov3_requires_pstride():
    inst = Instruction(op=Opcode.DVMOV3, dsts=(v(0),), srcs=(d3(0),), vl=4)
    with pytest.raises(IsaError):
        inst.validate()


def test_exec_class_mapping():
    assert Instruction(op=Opcode.ADD).exec_class is ExecClass.INT
    assert Instruction(op=Opcode.PADDB).exec_class is ExecClass.SIMD
    assert Instruction(op=Opcode.VLD).exec_class is ExecClass.VMEM
    assert Instruction(op=Opcode.DVLOAD3).exec_class is ExecClass.V3DLOAD
    assert Instruction(op=Opcode.DVMOV3).exec_class is ExecClass.V3DMOVE


def test_builder_tracks_vl():
    b = ProgramBuilder("t")
    b.setvl(8)
    b.vld(v(0), ea=0x1000, stride=64)
    assert b.program.instructions[-1].vl == 8
    b.setvl(2)
    b.simd(Opcode.PADDB, v(1), v(0), v(0), etype=ElemType.U8)
    assert b.program.instructions[-1].vl == 2


def test_builder_setvl_range():
    b = ProgramBuilder()
    with pytest.raises(IsaError):
        b.setvl(0)
    with pytest.raises(IsaError):
        b.setvl(17)


def test_builder_tagging():
    b = ProgramBuilder()
    with b.tagged("kernel_a"):
        b.li(r(0), 1)
    b.li(r(1), 2)
    assert b.program.instructions[0].tag == "kernel_a"
    assert b.program.instructions[1].tag == ""


def test_builder_cmov_reads_dst():
    b = ProgramBuilder()
    b.cmov(r(2), r(0), r(1))
    inst = b.program.instructions[-1]
    assert r(2) in inst.srcs  # old value is an input


def test_program_count_by_class():
    b = ProgramBuilder()
    b.li(r(0), 1)
    b.setvl(4)
    b.vld(v(0), ea=0, stride=8)
    hist = b.program.count_by_class()
    assert hist[ExecClass.INT] == 1
    assert hist[ExecClass.VMEM] == 1


def test_program_append_validates():
    program = Program()
    with pytest.raises(IsaError):
        program.append(Instruction(op=Opcode.VLD, dsts=(v(0),), stride=8))


def test_accumulator_ops_read_accumulator():
    b = ProgramBuilder()
    b.setvl(4)
    b.vpsadacc(acc(0), v(0), v(1))
    inst = b.program.instructions[-1]
    assert acc(0) in inst.srcs and acc(0) in inst.dsts


def test_vl_range_is_checked_for_every_opcode():
    b = ProgramBuilder()
    with pytest.raises(IsaError):
        b.dvmov3(v(1), d3(0), pstride=8, vl=40)
    with pytest.raises(IsaError):
        Program().append(Instruction(op=Opcode.PADDW, dsts=(v(0),),
                                     srcs=(v(1), v(2)),
                                     etype=ElemType.I16, vl=0))
    b.dvmov3(v(1), d3(0), pstride=8, vl=16)
    assert len(b.program) == 1


def test_builder_shares_equal_emits():
    b = ProgramBuilder()
    for _ in range(3):
        b.setvl(4)
        b.vld(v(0), ea=0x100, stride=8)
        b.simd(Opcode.PADDW, v(1), v(0), v(0), etype=ElemType.I16)
    with b.tagged("k"):
        b.setvl(4)
    insts = b.program.instructions
    assert insts[0] is insts[3] is insts[6]
    assert insts[2] is insts[5] is insts[8]
    # the tag is part of the value: the tagged setvl is its own object
    assert insts[9] == Instruction(op=Opcode.SETVL, dsts=insts[0].dsts,
                                   imm=4, tag="k")
    assert len({id(i) for i in insts}) == len(set(insts)) == 4
    assert b.program.version == len(insts) == 10


def test_builder_invalid_emit_raises_on_every_repeat():
    b = ProgramBuilder()
    for _ in range(3):
        with pytest.raises(IsaError):
            b.dvmov3(v(1), d3(0), pstride=8, vl=40)
        with pytest.raises(IsaError):
            b.ld(r(0), ea=None)
    assert len(b.program) == 0


def _shift_add(b, shift):
    """An address-free body: the kind ``ProgramBuilder.replay`` takes."""
    b.simd(Opcode.PSRAW, v(1), v(0), etype=ElemType.I16, imm=shift)
    b.simd(Opcode.PADDW, v(2), v(2), v(1), etype=ElemType.I16)


def test_replay_appends_the_recorded_objects():
    b = ProgramBuilder()
    b.replay(_shift_add, 3)
    recorded = list(b.program.instructions)
    b.nop()
    version = b.program.version
    b.replay(_shift_add, 3)
    replayed = b.program.instructions[3:]
    assert len(replayed) == len(recorded) == 2
    assert all(a is r for a, r in zip(replayed, recorded))
    assert b.program.version == version + 2 == len(b.program)


def _kernel(b, replay):
    for tag in ("row", "col", "row"):
        with b.tagged(tag):
            for vl in (4, 8, 4):
                b.setvl(vl)
                for shift in (1, 2, 1):
                    b.vld(v(0), ea=0x100 * shift, stride=8,
                          etype=ElemType.I16)
                    if replay:
                        b.replay(_shift_add, shift)
                    else:
                        _shift_add(b, shift)
                    b.branch()
    return b.program


def test_replayed_trace_equals_the_plain_emits():
    plain = _kernel(ProgramBuilder(), replay=False)
    replayed = _kernel(ProgramBuilder(), replay=True)
    assert replayed.instructions == plain.instructions
    assert encode_program(replayed) == encode_program(plain)
    assert replayed.version == plain.version == len(plain) == 117
    # the replay shares exactly what interning alone shares
    assert len({id(i) for i in replayed}) == \
        len({id(i) for i in plain}) == len(set(plain.instructions))


def test_replay_runs_are_keyed_by_args_tag_and_vl():
    recordings = []

    def body(b, shift):
        recordings.append((shift, b.vl))
        _shift_add(b, shift)

    b = ProgramBuilder()
    for _ in range(2):
        b.replay(body, 1)
        b.replay(body, 2)
        with b.tagged("k"):
            b.replay(body, 1)
    b.setvl(8)
    b.replay(body, 1)
    b.replay(body, 1)
    assert recordings == [(1, 1), (2, 1), (1, 1), (1, 8)]
    insts = b.program.instructions
    assert insts[0].tag == "" and insts[4].tag == "k"
    assert insts[0].vl == 1 and insts[-1].vl == 8
    assert insts[0] is insts[6] and insts[4] is insts[10]


def test_replay_rejects_a_body_that_changes_vl_or_tag():
    def set_length(b):
        b.setvl(8)

    still_open = []

    def leave_tagged(b):
        still_open.append(b.tagged("k"))
        still_open[-1].__enter__()
        b.nop()

    b = ProgramBuilder()
    for _ in range(2):  # a rejected recording is not kept
        with pytest.raises(IsaError):
            b.replay(set_length)
        b.setvl(1)
    with pytest.raises(IsaError):
        ProgramBuilder().replay(leave_tagged)
    # setting the VL it already holds leaves it unchanged
    b = ProgramBuilder()
    b.setvl(8)
    b.replay(set_length)
    b.replay(set_length)
    assert len(b.program) == 3


def test_replay_of_an_invalid_emit_raises_on_every_call():
    def bad(b):
        b.nop()
        b.dvmov3(v(1), d3(0), pstride=8, vl=40)

    b = ProgramBuilder()
    for calls in range(1, 4):
        with pytest.raises(IsaError):
            b.replay(bad)
        # as a plain emit would: the valid prefix is emitted each time
        assert len(b.program) == calls


def test_enum_keyed_dicts_resolve_every_member_after_pickling():
    """The ISA enums hash by identity; a pickle round trip returns the
    same member, so enum-keyed tables still resolve it."""
    import pickle

    from repro.isa import RegClass

    for enum_cls in (Opcode, ExecClass, ElemType, RegClass):
        table = {member: member.value for member in enum_cls}
        for member in enum_cls:
            loaded = pickle.loads(pickle.dumps(member))
            assert loaded is member
            assert table[loaded] == member.value
        reloaded = pickle.loads(pickle.dumps(table))
        assert all(reloaded[member] == member.value
                   for member in enum_cls)
