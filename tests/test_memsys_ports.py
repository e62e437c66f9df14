"""Tests for the vector-port designs: grouping, conflicts, accounting."""

import pytest

from repro.isa import Instruction, Opcode, d3, v
from repro.memsys import (
    CacheHierarchy,
    HierarchyConfig,
    IdealPort,
    L1Port,
    MemRequest,
    MultiBankedPort,
    VectorCachePort,
    request_for,
)


def hierarchy(l2_latency=20):
    return CacheHierarchy(HierarchyConfig(l2_latency=l2_latency))


def vld(ea, stride, vl):
    return Instruction(op=Opcode.VLD, dsts=(v(0),), ea=ea, stride=stride,
                       vl=vl)


def dvload(ea, stride, vl, wwords):
    return Instruction(op=Opcode.DVLOAD3, dsts=(d3(0),), ea=ea,
                       stride=stride, vl=vl, wwords=wwords)


# --- request lowering -------------------------------------------------------


def test_request_for_vld():
    req = request_for(vld(0x1000, 720, 8))
    assert len(req.refs) == 8
    assert req.refs[1] == (0x1000 + 720, 8)
    assert req.useful_words == 8
    assert not req.is_write and not req.line_mode


def test_request_for_dvload3():
    req = request_for(dvload(0x2000, 720, 8, wwords=3))
    assert len(req.refs) == 8
    assert req.refs[2] == (0x2000 + 1440, 24)
    assert req.useful_words == 24
    assert req.line_mode


def test_request_for_store():
    inst = Instruction(op=Opcode.VST, srcs=(v(1),), ea=0x100, stride=8, vl=4)
    req = request_for(inst)
    assert req.is_write


# --- vector cache port ---------------------------------------------------------


def test_vector_cache_dense_grouping():
    """Unit-stride: 4 words per access (256-bit port)."""
    port = VectorCachePort(hierarchy())
    sched = port.schedule(request_for(vld(0x1000, 8, 16)), earliest=0)
    assert sched.port_accesses == 4  # 16 words / 4 per access
    assert sched.words == 16


def test_vector_cache_sparse_one_word_per_access():
    """Strided rows (image width apart): one element per access."""
    port = VectorCachePort(hierarchy())
    sched = port.schedule(request_for(vld(0x1000, 720, 8)), earliest=0)
    assert sched.port_accesses == 8
    assert sched.words == 8


def test_vector_cache_effective_bandwidth():
    port = VectorCachePort(hierarchy())
    port.schedule(request_for(vld(0x1000, 8, 16)), earliest=0)
    assert port.stats.effective_bandwidth == pytest.approx(4.0)


def test_vector_cache_line_mode_whole_line_per_access():
    port = VectorCachePort(hierarchy())
    # 8 elements x 16 words, each element 128-byte aligned: 1 access each
    sched = port.schedule(
        request_for(dvload(0x2000, 128, 8, wwords=16)), earliest=0)
    assert sched.port_accesses == 8
    assert sched.words == 128  # 8 elements x 16 words into the 3D RF
    assert sched.words / sched.port_accesses == 16.0


def test_vector_cache_line_mode_split_element():
    port = VectorCachePort(hierarchy())
    # element starts mid-line and spans two lines -> 2 accesses
    sched = port.schedule(
        request_for(dvload(0x2000 + 64, 256, 1, wwords=16)), earliest=0)
    assert sched.port_accesses == 2


def test_vector_cache_port_serializes():
    port = VectorCachePort(hierarchy())
    s1 = port.schedule(request_for(vld(0x1000, 720, 8)), earliest=0)
    s2 = port.schedule(request_for(vld(0x8000, 720, 8)), earliest=0)
    assert s2.start >= s1.start + s1.busy_cycles


def test_vector_cache_miss_then_hit_latency():
    port = VectorCachePort(hierarchy())
    cold = port.schedule(request_for(vld(0x1000, 8, 4)), earliest=0)
    warm = port.schedule(request_for(vld(0x1000, 8, 4)), earliest=100)
    assert cold.misses >= 1
    assert warm.misses == 0
    assert (warm.complete - warm.start) < (cold.complete - cold.start)


# --- multi-banked port -------------------------------------------------------------


def test_multibank_conflict_free_pattern():
    """Stride-8 words hit banks round-robin: 4 refs/cycle."""
    port = MultiBankedPort(hierarchy(), n_ports=4, n_banks=8)
    sched = port.schedule(request_for(vld(0x1000, 8, 16)), earliest=0)
    assert sched.port_accesses == 4  # 16 refs / 4 ports
    assert sched.cache_accesses == 16  # every bank reference counted


def test_multibank_full_conflict_serializes():
    """Stride of n_banks words: every ref maps to the same bank."""
    port = MultiBankedPort(hierarchy(), n_ports=4, n_banks=8)
    sched = port.schedule(request_for(vld(0x1000, 64, 8)), earliest=0)
    assert sched.port_accesses == 8  # one ref per cycle


def test_multibank_half_conflict():
    """Stride of 4 words alternates between two banks: 2 refs/cycle."""
    port = MultiBankedPort(hierarchy(), n_ports=4, n_banks=8)
    sched = port.schedule(request_for(vld(0x1000, 32, 8)), earliest=0)
    assert sched.port_accesses == 4


def test_multibank_decomposes_line_mode():
    port = MultiBankedPort(hierarchy(), n_ports=4, n_banks=8)
    sched = port.schedule(request_for(dvload(0x1000, 128, 2, wwords=4)),
                          earliest=0)
    assert sched.cache_accesses == 8  # 2 elements x 4 words


# --- ideal port -------------------------------------------------------------------


def test_ideal_port_unbounded():
    port = IdealPort(hierarchy(l2_latency=1))
    s1 = port.schedule(request_for(vld(0x1000, 720, 16)), earliest=5)
    s2 = port.schedule(request_for(vld(0x9000, 720, 16)), earliest=5)
    assert s1.complete == 6 and s2.complete == 6


# --- L1 path ----------------------------------------------------------------------


def test_l1_port_hit_latency_one():
    h = hierarchy()
    port = L1Port(h, n_ports=4)
    req = MemRequest(refs=[(0x100, 8)], useful_words=1)
    cold = port.schedule(req, earliest=0)
    warm = port.schedule(MemRequest(refs=[(0x100, 8)], useful_words=1),
                         earliest=50)
    assert warm.complete - warm.start == 1
    assert cold.complete - cold.start > 1  # L1 miss went to L2


def test_l1_port_width_limits_throughput():
    h = hierarchy()
    port = L1Port(h, n_ports=2)
    # warm the line first
    port.schedule(MemRequest(refs=[(0x0, 8)], useful_words=1), 0)
    scheds = [port.schedule(MemRequest(refs=[(0x0, 8)], useful_words=1),
                            earliest=100) for _ in range(4)]
    starts = sorted(s.start for s in scheds)
    assert starts == [100, 100, 101, 101]


# --- pre-decode plans ------------------------------------------------------------


@pytest.mark.parametrize("port_cls", [VectorCachePort, MultiBankedPort])
def test_planned_schedule_equals_unplanned(port_cls):
    """A request with its pre-decode plan (the static ``plan_for``)
    attached schedules identically to the same request decomposed
    inside the port."""
    for inst in (vld(0x1000, 8, 16), vld(0x1003, 720, 7),
                 dvload(0x4000, 720, 8, 2)):
        if inst.op is Opcode.DVLOAD3 and port_cls is MultiBankedPort:
            continue
        plain_port = port_cls(hierarchy())
        planned_port = port_cls(hierarchy())
        plain = plain_port.schedule(request_for(inst), earliest=3)
        request = request_for(inst)
        l2_line = planned_port.hierarchy.config.l2_line
        if port_cls is MultiBankedPort:
            request.plan = MultiBankedPort.plan_for(
                request, planned_port.n_ports, planned_port.n_banks,
                l2_line)
        else:
            request.plan = VectorCachePort.plan_for(
                request, planned_port.width_words, l2_line)
        planned = planned_port.schedule(request, earliest=3)
        assert planned == plain
        assert vars(planned_port.stats) == vars(plain_port.stats)


# --- coherence ---------------------------------------------------------------------


def test_exclusive_bit_coherence_event():
    h = hierarchy()
    # scalar touch claims the line for the L1 side
    h.scalar_access(0x1000, is_write=False)
    assert h.l2.is_scalar_owned(0x1000)
    port = VectorCachePort(h)
    port.schedule(request_for(vld(0x1000, 8, 4)), earliest=0)
    assert h.coherence_events == 1
    assert not h.l2.is_scalar_owned(0x1000)
    assert not h.l1.probe(0x1000)
