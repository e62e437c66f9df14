"""Timing-model tests: dependences, widths, ports, latency monotonicity."""

import pytest

from repro.errors import ConfigError
from repro.isa import ElemType, Opcode, ProgramBuilder, acc, d3, r, v
from repro.timing import (
    Pipeline,
    ideal_memsys,
    mmx_processor,
    mom3d_processor,
    mom_processor,
    multibank_memsys,
    simulate,
    vector_memsys,
)


def run(program, proc=None, memsys=None):
    return simulate(program,
                    proc if proc is not None else mom_processor(),
                    memsys if memsys is not None else ideal_memsys())


def chain_program(n=32):
    """Serial dependency chain of adds."""
    b = ProgramBuilder("chain")
    b.li(r(1), 0)
    for _ in range(n):
        b.addi(r(1), r(1), 1)
    return b.program


def independent_program(n=32):
    b = ProgramBuilder("indep")
    for i in range(n):
        b.li(r(i % 16), i)
    return b.program


def test_dependent_chain_slower_than_independent():
    dep = run(chain_program(64))
    ind = run(independent_program(64))
    assert dep.cycles > ind.cycles


def test_fetch_width_bounds_throughput():
    # 64 independent instructions, 8-wide fetch: at least 8 cycles
    stats = run(independent_program(64))
    assert stats.cycles >= 64 / 8


def test_branch_bubble_costs_fetch_cycles():
    b1 = ProgramBuilder("nb")
    b2 = ProgramBuilder("wb")
    for i in range(32):
        b1.li(r(i % 8), i)
        b2.li(r(i % 8), i)
        if i % 4 == 3:
            b2.branch()
    assert run(b2.program).cycles > run(b1.program).cycles


def test_int_issue_width_limits():
    """More independent int work than issue slots serializes."""
    stats = run(independent_program(128))
    # 4-wide int issue: 128 instructions need >= 32 cycles
    assert stats.cycles >= 32


def test_mom_simd_occupancy():
    """VL=16 on a 4-lane unit holds it 4 cycles; chains serialize."""
    b = ProgramBuilder()
    b.setvl(16)
    for _ in range(8):
        b.simd(Opcode.PADDB, v(1), v(1), v(1), etype=ElemType.U8)
    dep16 = run(b.program).cycles
    b2 = ProgramBuilder()
    b2.setvl(4)
    for _ in range(8):
        b2.simd(Opcode.PADDB, v(1), v(1), v(1), etype=ElemType.U8)
    dep4 = run(b2.program).cycles
    assert dep16 > dep4


def test_vector_load_feeds_dependent_op():
    b = ProgramBuilder()
    b.setvl(8)
    b.vld(v(0), ea=0x1000, stride=128)
    b.simd(Opcode.PADDB, v(1), v(0), v(0), etype=ElemType.U8)
    stats = run(b.program, memsys=vector_memsys())
    # the add cannot complete before the load's L2 latency
    assert stats.cycles > 20


def test_ideal_memory_faster_than_realistic():
    b = ProgramBuilder()
    b.setvl(16)
    for i in range(16):
        b.vld(v(i % 8), ea=0x1000 + 4096 * i, stride=720)
    ideal = run(b.program, memsys=ideal_memsys()).cycles
    real = run(b.program, memsys=vector_memsys()).cycles
    assert real > ideal


def test_latency_monotonicity():
    """Raising L2 latency never speeds the program up (Fig. 10 axis)."""
    b = ProgramBuilder()
    b.setvl(8)
    for i in range(24):
        b.vld(v(i % 8), ea=0x1000 + 512 * i, stride=64)
        b.simd(Opcode.PADDB, v(8 + i % 4), v(i % 8), v(i % 8),
               etype=ElemType.U8)
    cycles = [run(b.program, memsys=vector_memsys(l2_latency=lat)).cycles
              for lat in (20, 40, 60)]
    assert cycles[0] <= cycles[1] <= cycles[2]


def test_sparse_load_occupies_port_longer_than_dense():
    def prog(stride):
        b = ProgramBuilder()
        b.setvl(16)
        for i in range(8):
            b.vld(v(i), ea=0x1000 + i * 4096, stride=stride)
        return b.program

    dense = run(prog(8), memsys=vector_memsys())
    sparse = run(prog(720), memsys=vector_memsys())
    assert sparse.vector_port.port_accesses > dense.vector_port.port_accesses
    assert sparse.cycles > dense.cycles


def test_dvload3_and_dvmov3_timing():
    b = ProgramBuilder()
    b.setvl(8)
    b.dvload3(d3(0), ea=0x1000, stride=720, wwords=2)
    for _ in range(5):
        b.dvmov3(v(1), d3(0), pstride=1)
    stats = run(b.program, proc=mom3d_processor(), memsys=vector_memsys())
    assert stats.rf3d_reads == 5
    assert stats.rf3d_words == 40
    assert stats.veclen.loads3d == 1
    assert stats.veclen.dim3 == 5.0


def test_dvload3_rejected_on_plain_mom():
    b = ProgramBuilder()
    b.setvl(4)
    b.dvload3(d3(0), ea=0x1000, stride=128, wwords=2)
    with pytest.raises(ConfigError):
        run(b.program, proc=mom_processor(), memsys=vector_memsys())


def test_dvload3_rejected_on_mmx():
    b = ProgramBuilder()
    b.setvl(4)
    b.dvload3(d3(0), ea=0x1000, stride=128, wwords=2)
    with pytest.raises(ConfigError):
        run(b.program, proc=mmx_processor(), memsys=vector_memsys())


def test_mmx_media_loads_use_l1():
    b = ProgramBuilder()
    for i in range(8):
        b.vld(v(i), ea=0x1000 + 8 * i, stride=8, vl=1)
    stats = run(b.program, proc=mmx_processor(), memsys=vector_memsys())
    assert stats.l1_port.requests == 8
    assert stats.vector_port.requests == 0


def test_mom_vector_loads_use_vector_port():
    b = ProgramBuilder()
    b.setvl(8)
    b.vld(v(0), ea=0x1000, stride=128)
    stats = run(b.program, proc=mom_processor(), memsys=vector_memsys())
    assert stats.vector_port.requests == 1


def test_store_to_load_forwarding_order():
    """A load after a store to the same line waits for the store."""
    def prog(store_ea):
        b = ProgramBuilder()
        b.setvl(4)
        # warm both lines so write-allocate doesn't skew the comparison
        b.vld(v(2), ea=0x1000, stride=8)
        b.vld(v(3), ea=0x8000, stride=8)
        b.vbcast64(v(0), 7)
        # long dependency chain delays the store's data
        for _ in range(12):
            b.simd(Opcode.PADDB, v(0), v(0), v(0), etype=ElemType.U8)
        b.vst(v(0), ea=store_ea, stride=8)
        b.vld(v(1), ea=0x1000, stride=8)
        b.simd(Opcode.PADDB, v(4), v(1), v(1), etype=ElemType.U8)
        return b.program

    with_conflict = run(prog(0x1000), memsys=vector_memsys()).cycles
    without = run(prog(0x8000), memsys=vector_memsys()).cycles
    assert with_conflict >= without


def test_accumulator_chain_serializes():
    b = ProgramBuilder()
    b.setvl(8)
    b.clracc(acc(0))
    for _ in range(6):
        b.vpsadacc(acc(0), v(0), v(1))
    serial = run(b.program).cycles

    b2 = ProgramBuilder()
    b2.setvl(8)
    b2.clracc(acc(0))
    b2.clracc(acc(1))
    for i in range(6):
        b2.vpsadacc(acc(i % 2), v(0), v(1))
    interleaved = run(b2.program).cycles
    assert serial > interleaved


def test_veclen_stats_dimensions():
    b = ProgramBuilder()
    b.setvl(8)
    b.vld(v(0), ea=0x1000, stride=720, etype=ElemType.U8)
    b.vld(v(1), ea=0x2000, stride=720, etype=ElemType.I16)
    stats = run(b.program, memsys=vector_memsys())
    assert stats.veclen.dim1 == pytest.approx(6.0)  # (8+4)/2
    assert stats.veclen.dim2 == pytest.approx(8.0)


def test_multibank_vs_vector_cache_on_dense():
    """Dense streams: both designs deliver multiple words/access."""
    b = ProgramBuilder()
    b.setvl(16)
    for i in range(16):
        b.vld(v(i % 16), ea=0x1000 + 128 * i, stride=8)
    vc = run(b.program, memsys=vector_memsys())
    mb = run(b.program, memsys=multibank_memsys())
    assert vc.effective_bandwidth == pytest.approx(4.0)
    assert mb.effective_bandwidth == pytest.approx(4.0)
    # Table 4: the multi-banked design burns one bank access per word
    assert mb.l2_activity > vc.l2_activity


def test_cycles_positive_and_retire_after_complete():
    stats = run(independent_program(8))
    assert stats.cycles > 0
    assert stats.instructions == 8


def test_scalar_store_straddling_l2_line_gates_load():
    """An 8-byte store whose end crosses an L2 line boundary must gate
    loads from the *second* line too (store-conflict ordering).

    Regression test: the model used to record only the first line for
    scalar LD/ST, so a straddling store never conflicted with traffic
    to the next line.  The paper-grid traces keep their LD/ST accesses
    8-byte aligned, so the fix does not move any table.
    """
    def prog(store_ea):
        b = ProgramBuilder()
        b.li(r(1), 7)
        # long dependency chain delays the store's address/data
        for _ in range(30):
            b.addi(r(1), r(1), 1)
        b.st(r(1), ea=store_ea)
        b.setvl(4)
        b.vld(v(0), ea=0x2000, stride=8)
        b.simd(Opcode.PADDB, v(1), v(0), v(0), etype=ElemType.U8)
        return b.program

    # 0x1ffc..0x2003 straddles into the load's line; 0x1ff0 does not
    gated = run(prog(0x2000 - 4), memsys=vector_memsys()).cycles
    clear = run(prog(0x2000 - 12), memsys=vector_memsys()).cycles
    assert gated > clear


@pytest.mark.parametrize("bench,coding", [("mpeg2_encode", "mom"),
                                          ("gsm_encode", "mmx")])
def test_core_decode_shares_equal_rows(bench, coding):
    """Equal decode rows are one object, so an unrolled trace holds one
    row tuple per distinct row rather than one per instruction."""
    from repro.engine.parallel import build_workload
    from repro.timing import predecode

    program = build_workload(bench, coding).program
    core = predecode._decode_core(program)
    assert len({id(row) for row in core.rows}) == len(set(core.rows))
    assert len(set(core.rows)) < len(core.rows) // 10


def test_straddling_store_gates_identically_in_both_models():
    b = ProgramBuilder()
    b.li(r(1), 3)
    for _ in range(20):
        b.addi(r(1), r(1), 1)
    b.st(r(1), ea=0x2000 - 4)
    b.setvl(8)
    b.vld(v(0), ea=0x2000, stride=16)
    ref = simulate(b.program, mom_processor(), vector_memsys(),
                   model="reference")
    bat = simulate(b.program, mom_processor(), vector_memsys(),
                   model="batched")
    assert bat.to_dict() == ref.to_dict()
