"""Unit tests for the register architecture."""

import pytest

from repro.errors import IsaError
from repro.isa import (
    VL,
    VS,
    ProgramBuilder,
    RegClass,
    Register,
    acc,
    d3,
    r,
    v,
)
from repro.isa.encoding import decode_instruction, encode_instruction
from repro.isa.registers import LOGICAL_COUNTS


def test_scalar_constructor():
    reg = r(5)
    assert reg.cls is RegClass.SCALAR
    assert reg.index == 5
    assert repr(reg) == "r5"


def test_vector_constructor():
    assert repr(v(15)) == "v15"
    assert v(0).cls is RegClass.VECTOR


def test_acc_and_3d_constructors():
    assert repr(acc(1)) == "acc1"
    assert repr(d3(0)) == "d0"


def test_control_registers():
    assert repr(VL) == "vl"
    assert repr(VS) == "vs"


@pytest.mark.parametrize("ctor,bad", [(r, 32), (v, 16), (acc, 2), (d3, 2)])
def test_out_of_range_indices_rejected(ctor, bad):
    with pytest.raises(IsaError):
        ctor(bad)


@pytest.mark.parametrize("ctor", [r, v, acc, d3])
def test_negative_indices_rejected(ctor):
    with pytest.raises(IsaError):
        ctor(-1)


def test_registers_hashable_and_equal():
    assert r(3) == Register(RegClass.SCALAR, 3)
    assert len({v(1), v(1), v(2)}) == 2


@pytest.mark.parametrize("ctor,cls", [(r, RegClass.SCALAR),
                                      (v, RegClass.VECTOR),
                                      (acc, RegClass.ACC),
                                      (d3, RegClass.VEC3D)])
def test_accessors_share_one_object_per_register(ctor, cls):
    for index in range(LOGICAL_COUNTS[cls]):
        reg = ctor(index)
        assert reg is ctor(index)
        assert reg == Register(cls, index)
        assert hash(reg) == hash(Register(cls, index))


def test_vl_is_one_dict_key_however_it_is_made():
    fresh = Register(RegClass.CONTROL, 0)
    builder = ProgramBuilder()
    builder.setvl(4)
    (emitted,) = builder.program.instructions[0].dsts
    (decoded,) = decode_instruction(
        encode_instruction(builder.program.instructions[0]))[0].dsts
    assert VL == fresh == emitted == decoded
    assert hash(VL) == hash(fresh) == hash(emitted) == hash(decoded)
    table = {VL: "vl"}
    assert table[fresh] == table[emitted] == table[decoded] == "vl"
    table[fresh] = "vl again"
    assert table == {VL: "vl again"}
    assert VS not in table


_PICKLER = """
import pickle, sys
from repro.isa import ElemType, Instruction, Opcode, VL, r, v
inst = Instruction(op=Opcode.VLD, dsts=(v(2),), srcs=(r(1),),
                   etype=ElemType.I16, vl=4, ea=0x100, stride=8, tag="k")
sys.stdout.write(pickle.dumps((v(3), VL, inst)).hex())
"""


def test_pickles_from_another_hash_seed_are_valid_keys():
    """A register's hash must not vary by process: a register or an
    instruction pickled under another ``PYTHONHASHSEED`` finds its
    entry in a dict and a set built here."""
    import os
    import pickle
    import subprocess
    import sys
    from pathlib import Path

    from repro.isa import ElemType, Instruction, Opcode

    src = Path(__file__).resolve().parents[1] / "src"
    seed = "54321" if os.environ.get("PYTHONHASHSEED") == "12345" \
        else "12345"
    out = subprocess.run(
        [sys.executable, "-c", _PICKLER], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(src),
                        "PYTHONHASHSEED": seed}).stdout
    reg, control, inst = pickle.loads(bytes.fromhex(out))
    local = Instruction(op=Opcode.VLD, dsts=(v(2),), srcs=(r(1),),
                        etype=ElemType.I16, vl=4, ea=0x100, stride=8,
                        tag="k")
    assert (reg, control, inst) == (v(3), VL, local)
    table = {v(3): "v3", VL: "vl", local: "vld"}
    assert (table[reg], table[control], table[inst]) == ("v3", "vl", "vld")
    assert {reg, control, inst} == {v(3), VL, local}
