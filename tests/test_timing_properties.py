"""Property-based equivalence tests for the batched timing model.

Hypothesis generates short random ``Program``s mixing scalar memory,
2D/3D vector memory, uSIMD arithmetic, accumulator reductions, control
and branches — with random strides, vector lengths and element widths —
and asserts that the batched pipeline's ``RunStats`` equal the
reference pipeline's on every draw.  A separate property pins
``touch_sequence`` to the naive double-loop oracle it replaced, and
another pins the core decode's per-object lowering: a trace whose
repeats share instruction objects decodes exactly like fresh copies.

Run under the fixed ``ci`` profile (registered in ``conftest.py``) in
CI: ``pytest --hypothesis-profile=ci``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.keys import RunSpec
from repro.engine.parallel import build_configs
from repro.harness.traceio import load_trace, save_trace
from repro.isa import (ElemType, Opcode, Program, ProgramBuilder, acc, d3,
                       r, v)
from repro.timing import simulate
from repro.timing.predecode import _decode_core, touch_sequence
from repro.workloads import get_benchmark

_SIMD_TWO_SRC = (Opcode.PADDB, Opcode.PADDW, Opcode.PMULLW,
                 Opcode.PAVGB, Opcode.PSADBW, Opcode.PUNPCKLBW)

_EA = st.integers(min_value=0, max_value=1 << 18)
_STRIDE = st.integers(min_value=-512, max_value=1024)


@st.composite
def _programs(draw):
    builder = ProgramBuilder("prop")
    count = draw(st.integers(min_value=1, max_value=48))
    for _ in range(count):
        kind = draw(st.sampled_from(
            ("int", "int", "simd", "simd", "vld", "vst", "ld", "st",
             "dvload3", "dvmov3", "setvl", "branch", "acc")))
        if kind == "int":
            builder.addi(r(draw(st.integers(0, 7))),
                         r(draw(st.integers(0, 7))),
                         draw(st.integers(0, 255)))
        elif kind == "simd":
            builder.simd(draw(st.sampled_from(_SIMD_TWO_SRC)),
                         v(draw(st.integers(0, 15))),
                         v(draw(st.integers(0, 15))),
                         v(draw(st.integers(0, 15))),
                         etype=draw(st.sampled_from(
                             (ElemType.U8, ElemType.I16))))
        elif kind == "vld":
            builder.vld(v(draw(st.integers(0, 15))), ea=draw(_EA),
                        stride=draw(_STRIDE),
                        etype=draw(st.sampled_from(
                            (ElemType.U8, ElemType.I16, None))))
        elif kind == "vst":
            builder.vst(v(draw(st.integers(0, 15))), ea=draw(_EA),
                        stride=draw(_STRIDE))
        elif kind == "ld":
            builder.ld(r(draw(st.integers(0, 7))), ea=draw(_EA))
        elif kind == "st":
            builder.st(r(draw(st.integers(0, 7))), ea=draw(_EA))
        elif kind == "dvload3":
            builder.dvload3(d3(draw(st.integers(0, 1))), ea=draw(_EA),
                            stride=draw(_STRIDE),
                            wwords=draw(st.integers(1, 16)),
                            back=draw(st.booleans()))
        elif kind == "dvmov3":
            builder.dvmov3(v(draw(st.integers(0, 15))),
                           d3(draw(st.integers(0, 1))),
                           pstride=draw(st.integers(-64, 64)))
        elif kind == "setvl":
            builder.setvl(draw(st.integers(1, 16)))
        elif kind == "branch":
            builder.branch()
        else:  # acc
            a = acc(draw(st.integers(0, 1)))
            if draw(st.booleans()):
                builder.clracc(a)
            else:
                builder.vpsadacc(a, v(draw(st.integers(0, 15))),
                                 v(draw(st.integers(0, 15))))
    return builder.program


@given(program=_programs(),
       memsys_name=st.sampled_from(("ideal", "vector", "multibank")),
       l2_latency=st.sampled_from((5, 20, 60)),
       warm=st.booleans())
@settings(deadline=None, max_examples=60)
def test_batched_matches_reference_on_random_programs(
        program, memsys_name, l2_latency, warm):
    spec = RunSpec(benchmark="gsm_encode", coding="mom3d",
                   memsys=memsys_name, l2_latency=l2_latency)
    proc, memsys = build_configs(spec)
    reference = simulate(program, proc, memsys, warm=warm,
                         model="reference")
    batched = simulate(program, proc, memsys, warm=warm, model="batched")
    assert batched.to_dict() == reference.to_dict(), \
        batched.diff(reference)


@given(program=_programs(), warm=st.booleans())
@settings(deadline=None, max_examples=30)
def test_batched_matches_reference_on_mmx(program, warm):
    """The MMX routing (all media through the L1) agrees as well."""
    if any(inst.op is Opcode.DVLOAD3 for inst in program):
        program.instructions = [inst for inst in program
                                if inst.op is not Opcode.DVLOAD3]
    if any(inst.op is Opcode.DVMOV3 for inst in program):
        program.instructions = [inst for inst in program
                                if inst.op is not Opcode.DVMOV3]
    spec = RunSpec(benchmark="gsm_encode", coding="mmx",
                   memsys="multibank")
    proc, memsys = build_configs(spec)
    reference = simulate(program, proc, memsys, warm=warm,
                         model="reference")
    batched = simulate(program, proc, memsys, warm=warm, model="batched")
    assert batched.to_dict() == reference.to_dict(), \
        batched.diff(reference)


def _naive_touch_sequence(ea, count, stride, width, line_bytes):
    """The double loop ``touch_sequence`` replaced: element k's lines
    ascending, consecutive duplicates collapsed."""
    naive = []
    for k in range(count):
        addr = ea + k * stride
        first = addr - addr % line_bytes
        last = (addr + width - 1) - (addr + width - 1) % line_bytes
        current = first
        while current <= last:
            if not naive or naive[-1] != current:
                naive.append(current)
            current += line_bytes
    return naive


@given(ea=st.integers(0, 1 << 20),
       count=st.integers(0, 24),
       stride=st.integers(-512, 1024),
       width=st.sampled_from((8, 16, 24, 64, 128)),
       line_bytes=st.sampled_from((32, 64, 128)))
@settings(deadline=None, max_examples=300)
def test_touch_sequence_matches_naive_double_loop(ea, count, stride,
                                                  width, line_bytes):
    assert touch_sequence(ea, count, stride, width, line_bytes) == \
        _naive_touch_sequence(ea, count, stride, width, line_bytes)


def _core_fields(program: Program) -> dict:
    """Every field of the program's core decode in comparable form
    (dict order included), except the derived-product memo ``aux``."""
    core = _decode_core(program)
    fields = {}
    for f in dataclasses.fields(core):
        value = getattr(core, f.name)
        if isinstance(value, np.ndarray):
            value = (value.dtype, value.tolist())
        elif isinstance(value, dict):
            value = list(value.items())
        fields[f.name] = value
    del fields["aux"]
    return fields


def _unshared(program: Program) -> Program:
    """The same trace with a fresh object per dynamic instruction."""
    return Program(name=program.name,
                   instructions=[dataclasses.replace(inst)
                                 for inst in program])


@given(program=_programs(), repeats=st.integers(1, 4))
@settings(deadline=None, max_examples=60)
def test_core_decode_ignores_instruction_sharing(program, repeats):
    """Lowering each distinct object once is invisible: repeating a
    body (its objects shared, like an unrolled loop) decodes exactly
    like the same trace built from fresh copies."""
    shared = Program(name=program.name,
                     instructions=program.instructions * repeats)
    copies = _unshared(shared)
    assert len({id(inst) for inst in copies}) == len(copies)
    assert _core_fields(copies) == _core_fields(shared)


@pytest.mark.parametrize("bench,coding", [("mpeg2_encode", "mom3d"),
                                          ("gsm_encode", "mmx")])
def test_paper_trace_core_decode_ignores_sharing(bench, coding, tmp_path):
    """A built paper trace, its unshared copies and its reload from a
    trace file (shared by record, with fresh registers) lower alike."""
    program = get_benchmark(bench).build(coding, 0).program
    path = tmp_path / "trace"
    save_trace(program, path)
    expected = _core_fields(program)
    assert _core_fields(_unshared(program)) == expected
    assert _core_fields(load_trace(path)) == expected
