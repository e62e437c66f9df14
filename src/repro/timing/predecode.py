"""Trace pre-decode: lower a :class:`Program` into struct-of-arrays.

Everything the timing pipeline computes per instruction that is a pure
function of the instruction (and of the static machine configuration)
is hoisted here into batch passes over the trace:

* resource routing (int / SIMD / 3D-move / memory, L1 vs vector port),
* operation latencies and functional-unit occupancies,
* dense integer register ids for the scoreboard (replacing dicts of
  :class:`Register` objects),
* memory requests with their port decomposition plans pre-attached,
* the L2 lines touched by each memory access (store-conflict gating),
* the trace's statistics profile (instruction/class/opcode histograms
  and the Table-1 vector-length events), which is independent of the
  schedule and can be accounted wholesale.

The pass is split in two cached levels.  The *core* decode depends
only on the program (dense register ids, routing classes, latencies,
histograms) and is computed once per trace; the per-configuration
*overlay* (occupancies, port plans, touched-line sets) reuses it, so
sweeping one benchmark across several memory systems re-lowers
nothing.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.isa.instructions import Instruction, Program
from repro.isa.opcodes import EXEC_CLASS, ExecClass, Opcode
from repro.isa.registers import VL, RegClass
from repro.memsys.multibank import MultiBankedPort
from repro.memsys.ports import MemRequest, request_for
from repro.memsys.vectorcache import VectorCachePort
from repro.timing.config import (
    DEFAULT_INT_LATENCY,
    DEFAULT_SIMD_LATENCY,
    MemSysConfig,
    OP_LATENCY,
    ProcessorConfig,
)
from repro.timing.stats import VecLenStats

# -- instruction kinds (pipeline routing) ----------------------------------

KIND_INT = 0  # scalar int / control / branch: int issue + int FUs
KIND_SIMD = 1  # uSIMD: simd issue + simd FUs
KIND_D3MOVE = 2  # dvmov3: mem issue + 3D read port
KIND_MEM = 3  # memory: mem issue + a memory port

# -- register ids -----------------------------------------------------------

_CLS_CODE = {
    RegClass.SCALAR: 0,
    RegClass.VECTOR: 1,
    RegClass.ACC: 2,
    RegClass.VEC3D: 3,
    RegClass.CONTROL: 4,
}
#: id 0 is reserved as the "never written" sentinel so padded source
#: slots read ready-at-cycle-0, exactly like the reference model's
#: ``dict.get(src, 0)``.
_REGS_PER_CLASS = 32
_PTR_BASE = 1 + len(_CLS_CODE) * _REGS_PER_CLASS
#: scoreboard size: all register classes plus the two 3D pointers
SB_SIZE = _PTR_BASE + 2
#: scoreboard slot of the VL control register
VL_ID = 1 + _CLS_CODE[RegClass.CONTROL] * _REGS_PER_CLASS + VL.index

#: rename-limiter codes (indexes into BatchedPipeline's limiter table)
REN_VECTOR = 0
REN_VEC3D = 1
_REN_CODE = {RegClass.VECTOR: REN_VECTOR, RegClass.VEC3D: REN_VEC3D}


def reg_id(reg) -> int:
    """Dense scoreboard id of an architectural register."""
    return 1 + _CLS_CODE[reg.cls] * _REGS_PER_CLASS + reg.index


def ptr_id(index: int) -> int:
    """Scoreboard id of a 3D pointer register (the ``(_PTR, i)`` keys
    of the reference model's scoreboard)."""
    return _PTR_BASE + index


# -- shared pure helpers -----------------------------------------------------


def touch_sequence(ea: int, count: int, stride: int, width: int,
                   line_bytes: int) -> list[int]:
    """Line addresses referenced by a strided element stream.

    Matches the element-order walk of the naive double loop (element
    k's lines ascending, then element k+1's) with consecutive
    duplicates collapsed — an immediate re-access of the same line is
    idempotent for both cache contents and LRU order.
    """
    if count <= 0:
        return []
    addrs = ea + stride * np.arange(count, dtype=np.int64)
    first = addrs - addrs % line_bytes
    last = addrs + (width - 1)
    last -= last % line_bytes
    max_lines = int((last - first).max()) // line_bytes + 1
    if max_lines == 1:
        lines = first
    else:
        grid = first[:, None] + line_bytes * np.arange(max_lines,
                                                       dtype=np.int64)
        lines = grid[grid <= last[:, None]]
    if lines.size > 1:
        keep = np.empty(lines.size, dtype=bool)
        keep[0] = True
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
        lines = lines[keep]
    return lines.tolist()


def routes_to_l1(inst: Instruction, isa: str) -> bool:
    """Whether a memory instruction takes the scalar L1 path."""
    return (inst.op in (Opcode.LD, Opcode.ST)
            or (isa == "mmx" and inst.is_memory))


def prime_hierarchy(program: Program, hierarchy, isa: str) -> None:
    """Touch every line the trace references, then reset counters.

    Shared by both timing models so warm-up state is identical by
    construction.  The per-element address arithmetic is done in bulk
    with numpy; the cache model still sees one ``access`` per line in
    the original touch order, so LRU state and final contents are
    unchanged.
    """
    from repro.memsys.cache import CacheStats

    l1_line = hierarchy.config.l1_line
    l2_line = hierarchy.l2.line_bytes
    l2_access = hierarchy.l2.access
    l1_access = hierarchy.l1.access
    for inst in program:
        if not inst.is_memory:
            continue
        width = (inst.wwords or 1) * 8
        count = inst.vl if inst.op not in (Opcode.LD, Opcode.ST) else 1
        stride = inst.stride or 0
        for line in touch_sequence(inst.ea, count, stride, width, l2_line):
            l2_access(line)
        if routes_to_l1(inst, isa):
            for line in touch_sequence(inst.ea, count, stride, width,
                                       l1_line):
                l1_access(line)
    hierarchy.l1.stats = CacheStats()
    hierarchy.l2.stats = CacheStats()
    hierarchy.mainmem.line_fetches = 0
    hierarchy.mainmem.line_writebacks = 0


def primed_layout(program: Program, hierarchy, isa: str) -> tuple:
    """Final cache contents the prime walk would leave, per program.

    :func:`prime_hierarchy` is a pure access stream: since every miss
    allocates and nothing is invalidated, a set's final content is the
    last ``ways`` distinct lines it saw, in last-touch (LRU) order —
    so the whole walk collapses to an insertion list per cache, which
    is memoized per program/geometry and replayed by
    :func:`prime_from_layout` without touching LRU state line by line.
    The reference model keeps the full walk; the differential suite
    pins the two to identical warm-run statistics.
    """
    l1 = hierarchy.l1
    l2 = hierarchy.l2
    memo = _program_memo(program)

    # The two cache layouts are memoized independently: the L2 layout
    # is a pure function of the trace and the L2 geometry alone (every
    # access primes the L2), so an overlay batch sweeping L1 geometry
    # (or the routing isa) shares one L2 computation — and vice versa.
    l2_key = ("prime-l2", l2.line_bytes, l2.n_sets, l2.ways)
    l1_key = ("prime-l1", isa, l1.line_bytes, l1.n_sets, l1.ways)
    l2_layout = memo.get(l2_key)
    l1_layout = memo.get(l1_key)
    if l2_layout is not None and l1_layout is not None:
        return (l2_layout, l1_layout)

    core = memo.get("core")
    if core is None:
        core = memo["core"] = _decode_core(program)
    geometry = core.mem_geometry
    if l2_layout is None:
        l2_layout = memo[l2_key] = _final_content(
            _line_stream(geometry, l2.line_bytes),
            l2.line_bytes, l2.n_sets, l2.ways)
    if l1_layout is None:
        l1_geometry = [g for g in geometry if g[5] or isa == "mmx"]
        l1_layout = memo[l1_key] = _final_content(
            _line_stream(l1_geometry, l1.line_bytes),
            l1.line_bytes, l1.n_sets, l1.ways)
    return (l2_layout, l1_layout)


def _line_stream(geometry, line_bytes: int) -> list[int]:
    """Every line a set of accesses touches, in element order.

    One numpy pass over all (ea, count, stride, width) geometries;
    element k's lines come out ascending before element k+1's, exactly
    like the per-instruction :func:`touch_sequence` walk (consecutive
    duplicates are irrelevant here — only last-touch order matters for
    the final content).
    """
    if not geometry:
        return []
    counts = np.array([g[2] for g in geometry], dtype=np.int64)
    total = int(counts.sum())
    element = np.arange(total, dtype=np.int64) \
        - np.repeat(np.cumsum(counts) - counts, counts)
    addrs = np.repeat(np.array([g[1] for g in geometry],
                               dtype=np.int64), counts) \
        + np.repeat(np.array([g[3] for g in geometry],
                             dtype=np.int64), counts) * element
    first = addrs - addrs % line_bytes
    last = addrs + np.repeat(np.array([g[4] for g in geometry],
                                      dtype=np.int64), counts) - 1
    last -= last % line_bytes
    max_lines = int((last - first).max()) // line_bytes + 1
    if max_lines == 1:
        return first.tolist()
    grid = first[:, None] + line_bytes * np.arange(max_lines,
                                                   dtype=np.int64)
    return grid[grid <= last[:, None]].tolist()


def _final_content(touches: list[int], line_bytes: int, n_sets: int,
                   ways: int) -> list[int]:
    """Lines resident after an access-only stream, in insertion order."""
    seen: set[int] = set()
    add = seen.add
    recent: list[int] = []
    for addr in reversed(touches):
        if addr not in seen:
            add(addr)
            recent.append(addr)
    kept: list[int] = []
    counts: dict[int, int] = {}
    for addr in recent:
        index = (addr // line_bytes) % n_sets
        used = counts.get(index, 0)
        if used < ways:
            counts[index] = used + 1
            kept.append(addr)
    kept.reverse()
    return kept


def prime_from_layout(hierarchy, layout: tuple) -> None:
    """Install a :func:`primed_layout` into a hierarchy's caches."""
    from repro.memsys.cache import CacheStats, _Line

    l2_lines, l1_lines = layout
    for cache, lines in ((hierarchy.l2, l2_lines),
                         (hierarchy.l1, l1_lines)):
        locate = cache._locate
        ways = cache.ways
        for addr in lines:
            cset, tag = locate(addr)
            if tag in cset:
                del cset[tag]
            cset[tag] = _Line()
            if len(cset) > ways:
                cset.popitem(last=False)
    hierarchy.l1.stats = CacheStats()
    hierarchy.l2.stats = CacheStats()
    hierarchy.mainmem.line_fetches = 0
    hierarchy.mainmem.line_writebacks = 0


def touched_lines(ea: int, count: int, stride: int, width: int,
                  line: int) -> list[int]:
    """Sorted L2 line numbers a strided access stream's bytes overlap.

    Used for store-conflict gating.  Scalar LD/ST accesses are a
    ``count=1`` stream of ``width=8`` — one whose end crosses a line
    boundary occupies two lines (the model previously recorded only
    the first line for them).
    """
    lines = set()
    for k in range(count):
        addr = ea + k * stride
        lines.add(addr // line)
        lines.add((addr + width - 1) // line)
    return sorted(lines)


# -- decode products ---------------------------------------------------------


@dataclass
class CoreDecode:
    """Configuration-independent lowering of one program.

    ``rows`` drives the batched scheduling walk: one tuple per instruction
    ``(kind, branch, latency, src_ids, dst_ids, rename_codes, lsq,
    needs_vl, ptr_kind, ptr_id)`` so the loop does a single list index
    plus one C-level unpack instead of a dozen attribute lookups.  Equal
    rows are one tuple object (interned by value), so an unrolled trace
    holds one tuple per distinct row rather than one per instruction.
    """

    n: int
    rows: list[tuple]
    #: indices of memory instructions, with their raw access geometry
    #: (index, ea, count, stride, width_bytes, is_scalar, is_store)
    #: for the overlay
    mem_geometry: list[tuple[int, int, int, int, int, bool, bool]]
    #: index-aligned MemRequest (None for non-memory slots); equal
    #: instructions share one request, which no consumer mutates
    requests: list[MemRequest | None]
    vl_arr: np.ndarray
    kind_arr: np.ndarray
    by_class: dict[ExecClass, int]
    by_opcode: dict[Opcode, int]
    #: the trace's Table 1 vector-length profile (schedule-independent;
    #: every run reports a copy of it)
    veclen: VecLenStats
    rf3d_words: int
    rf3d_reads: int
    has_dvload3: bool
    #: derived-product memo shared by every overlay of this core
    #: (occupancy vectors, memory tables, grid tables — keyed by the
    #: configuration slice each product actually depends on)
    aux: dict = field(default_factory=dict)


@dataclass
class DecodedTrace:
    """One program lowered under one concrete configuration."""

    core: CoreDecode
    #: per-instruction FU occupancy (int ops: 1; SIMD: ceil(vl/lanes);
    #: dvmov3: ceil(vl/d3_move_lanes))
    occ: list[int]
    #: per memory instruction: (routes_l1, request-with-plan,
    #: touched-line tuple, is_store); the occurrences of one
    #: instruction object share one entry tuple
    mem: dict[int, tuple[bool, MemRequest, tuple[int, ...], bool]]

    @property
    def n(self) -> int:
        return self.core.n


_VL_READERS = frozenset(
    (Opcode.VLD, Opcode.VST, Opcode.DVLOAD3, Opcode.DVMOV3))
#: Static per-opcode lowering: (kind, is_branch, latency, reads_vl,
#: is_scalar_mem, is_store, is_dvload3, is_vld_vst).
_OP_INFO: dict[Opcode, tuple] = {}
for _op, _cls in EXEC_CLASS.items():
    if _cls in (ExecClass.INT, ExecClass.CTRL, ExecClass.BRANCH):
        _kind, _lat = KIND_INT, OP_LATENCY.get(_op, DEFAULT_INT_LATENCY)
    elif _cls is ExecClass.SIMD:
        _kind, _lat = KIND_SIMD, OP_LATENCY.get(_op,
                                                DEFAULT_SIMD_LATENCY)
    elif _cls is ExecClass.V3DMOVE:
        _kind, _lat = KIND_D3MOVE, 0
    else:
        _kind, _lat = KIND_MEM, 0
    _OP_INFO[_op] = (
        _kind, _op is Opcode.BRANCH, _lat, _op in _VL_READERS,
        _op in (Opcode.LD, Opcode.ST), _op in (Opcode.ST, Opcode.VST),
        _op is Opcode.DVLOAD3, _op in (Opcode.VLD, Opcode.VST))

#: id(program) -> (weakref to the program, fingerprint, {"core":
#: CoreDecode, <config key>: DecodedTrace, ("prime", ...): primed
#: layout}).  Programs are unhashable (mutable dataclass), so the memo
#: keys by identity; the weakref callback drops the entry when the
#: program dies, which also protects against id reuse, and the
#: fingerprint (mutation counter + length) drops it when the program
#: is mutated after it was lowered.
_DECODE_CACHE: dict[int, tuple] = {}


def _program_memo(program: Program) -> dict:
    """The per-program decode memo (weakly keyed by identity).

    Invalidated wholesale when the program changes: ``Program.append``
    bumps ``version``, and the instruction count guards against direct
    ``instructions`` manipulation.
    """
    ident = id(program)
    fingerprint = (program.version, len(program.instructions))
    entry = _DECODE_CACHE.get(ident)
    if entry is None or entry[0]() is not program \
            or entry[1] != fingerprint:
        ref = weakref.ref(
            program, lambda _ref, ident=ident: _DECODE_CACHE.pop(ident,
                                                                 None))
        entry = _DECODE_CACHE[ident] = (ref, fingerprint, {})
    return entry[2]


def _overlay_key(proc: ProcessorConfig, memsys: MemSysConfig) -> tuple:
    return (proc.isa, proc.simd_lanes, proc.d3_move_lanes,
            memsys.hierarchy.l2_line, memsys.kind, memsys.vc_width_words,
            memsys.mb_ports, memsys.mb_banks)


def decode(program: Program, proc: ProcessorConfig,
           memsys: MemSysConfig) -> DecodedTrace:
    """Pre-decode ``program`` for the batched scheduler (memoized)."""
    memo = _program_memo(program)
    core = memo.get("core")
    if core is None:
        core = memo["core"] = _decode_core(program)
    key = _overlay_key(proc, memsys)
    overlay = memo.get(key)
    if overlay is None:
        overlay = memo[key] = _decode_overlay(core, proc, memsys)
    return overlay


# -- core pass ---------------------------------------------------------------


def _lower(inst: Instruction, intern: dict[tuple, tuple]) -> tuple:
    """Everything the core decode derives from one instruction alone.

    Returns ``(row, vl, kind, veclen event, memory geometry,
    MemRequest)``.  The veclen event is the ``VecLenStats`` recording
    method with its arguments.  The geometry lacks its leading index,
    and the last three are ``None`` where they do not apply.  The row
    is interned by value through ``intern``.
    """
    (kind, branch, latency, vl_reader, scalar_mem, store_op, is_dvload3,
     is_vmem) = _OP_INFO[inst.op]
    vl = inst.vl
    src_ids = tuple(map(reg_id, inst.srcs))
    dst_ids = tuple(map(reg_id, inst.dsts))
    ren = tuple([_REN_CODE[t.cls] for t in inst.dsts
                 if t.cls in _REN_CODE])
    needs_vl = vl > 1 or vl_reader
    ptr_kind = ptr = 0
    event = geometry = request = None
    if kind == KIND_D3MOVE:
        ptr_kind, ptr = 1, ptr_id(inst.srcs[0].index)
        event = (VecLenStats.record_dvmov3, (inst.srcs[0].index,))
    elif kind == KIND_MEM:
        lanes = inst.etype.lanes if inst.etype is not None else 8
        if is_dvload3:
            ptr_kind, ptr = 2, ptr_id(inst.dsts[0].index)
            event = (VecLenStats.record_dvload3,
                     (inst.dsts[0].index, lanes, vl))
        elif is_vmem:
            event = (VecLenStats.record_vector_memory, (lanes, vl))
        geometry = (inst.ea, 1 if scalar_mem else vl, inst.stride or 0,
                    (inst.wwords or 1) * 8, scalar_mem, store_op)
        request = request_for(inst)
    row = (kind, branch, latency, src_ids, dst_ids, ren,
           kind >= KIND_D3MOVE, needs_vl, ptr_kind, ptr)
    return (intern.setdefault(row, row), vl, kind, event, geometry,
            request)


def _decode_core(program: Program) -> CoreDecode:
    from collections import Counter

    instructions = program.instructions
    n = len(instructions)
    by_opcode = dict(Counter([inst.op for inst in instructions]))
    by_class: dict[ExecClass, int] = {}
    for op, count in by_opcode.items():
        cls = EXEC_CLASS[op]
        by_class[cls] = by_class.get(cls, 0) + count

    rows: list[tuple] = []
    mem_geometry: list[tuple] = []
    requests: list[MemRequest | None] = [None] * n
    vl_list: list[int] = []
    kind_list: list[int] = []
    veclen = VecLenStats()
    rf3d_words = rf3d_reads = 0

    # Each distinct instruction object is lowered once (the builder
    # shares equal instructions, so a trace of thousands holds a few
    # hundred objects).  The memo is keyed by identity and local to the
    # call: the program keeps every instruction alive for the duration,
    # so ids cannot be recycled under us.  Rows are interned by value
    # on top: distinct instructions (say, two addresses) often lower to
    # equal rows, and one tuple per distinct row keeps memory small.
    lowered: dict[int, tuple] = {}
    intern: dict[tuple, tuple] = {}

    for i, inst in enumerate(instructions):
        low = lowered.get(id(inst))
        if low is None:
            low = lowered[id(inst)] = _lower(inst, intern)
        row, vl, kind, event, geometry, request = low
        rows.append(row)
        vl_list.append(vl)
        kind_list.append(kind)
        if event is not None:
            record, args = event
            record(veclen, *args)
        if kind == KIND_D3MOVE:
            rf3d_words += vl
            rf3d_reads += 1
        elif geometry is not None:
            mem_geometry.append((i, *geometry))
            requests[i] = request

    return CoreDecode(
        n=n, rows=rows, mem_geometry=mem_geometry,
        requests=requests, vl_arr=np.array(vl_list, dtype=np.int64),
        kind_arr=np.array(kind_list, dtype=np.int64), by_class=by_class,
        by_opcode=by_opcode, veclen=veclen,
        rf3d_words=rf3d_words, rf3d_reads=rf3d_reads,
        has_dvload3=Opcode.DVLOAD3 in by_opcode)


# -- overlay pass ------------------------------------------------------------


def _decode_overlay(core: CoreDecode, proc: ProcessorConfig,
                    memsys: MemSysConfig) -> DecodedTrace:
    if core.has_dvload3:
        if proc.isa == "mmx":
            raise ConfigError("mmx configuration cannot run dvload3")
        if proc.isa != "mom3d":
            raise ConfigError("dvload3 requires the mom3d configuration")

    aux = core.aux

    # FU occupancies: numpy ceil-divide over the whole trace, shared by
    # every overlay with the same lane configuration
    occ_key = ("occ", proc.simd_lanes, proc.d3_move_lanes)
    occ = aux.get(occ_key)
    if occ is None:
        occ_arr = np.ones(core.n, dtype=np.int64)
        simd = core.kind_arr == KIND_SIMD
        if simd.any():
            occ_arr[simd] = -(-core.vl_arr[simd] // proc.simd_lanes)
        d3move = core.kind_arr == KIND_D3MOVE
        if d3move.any():
            occ_arr[d3move] = -(-core.vl_arr[d3move]
                                // proc.d3_move_lanes)
        occ = aux[occ_key] = occ_arr.tolist()

    l2_line = memsys.hierarchy.l2_line
    is_mmx = proc.isa == "mmx"
    # the memory table depends on the port geometry only through the
    # request plans, which only exist for vector-path requests — an
    # all-scalar (or MMX) trace shares one table across memory systems
    has_vector_mem = not is_mmx \
        and any(not g[5] for g in core.mem_geometry)
    mem_key = ("mem", is_mmx, l2_line) + (
        (memsys.kind, memsys.vc_width_words, memsys.mb_ports,
         memsys.mb_banks) if has_vector_mem else ())
    mem = aux.get(mem_key)
    if mem is None:
        mem = {}
        # The core shares one request per lowered instruction object
        # across all of its dynamic occurrences, and the geometry is a
        # function of that same object, so each request is planned
        # once and its finished entry reused.  Entries are read-only
        # tuples; no consumer keys on their identity.
        planned: dict[int, tuple] = {}
        for i, ea, count, stride, width, scalar, is_store \
                in core.mem_geometry:
            request = core.requests[i]
            key = id(request)
            entry = planned.get(key)
            if entry is None:
                to_l1 = scalar or is_mmx
                if not to_l1:
                    plan = _plan_for(request, memsys, l2_line, ea, count,
                                     stride)
                    if plan is not None:
                        request = MemRequest(
                            refs=request.refs, is_write=request.is_write,
                            useful_words=request.useful_words,
                            line_mode=request.line_mode, plan=plan)
                if count == 1:
                    first = ea // l2_line
                    last = (ea + width - 1) // l2_line
                    lines = (first,) if first == last else (first, last)
                else:
                    lines = tuple(touched_lines(ea, count, stride, width,
                                                l2_line))
                entry = planned[key] = (to_l1, request, lines, is_store)
            mem[i] = entry
        aux[mem_key] = mem

    return DecodedTrace(core=core, occ=occ, mem=mem)


def _plan_for(request: MemRequest, memsys: MemSysConfig, l2_line: int,
              ea: int, count: int, stride: int):
    if memsys.kind == "vector":
        if request.line_mode:
            return VectorCachePort.plan_for(
                request, memsys.vc_width_words, l2_line)
        return _vc_groups_uniform(ea, count, stride,
                                  memsys.vc_width_words, l2_line)
    if memsys.kind == "multibank":
        return MultiBankedPort.plan_for(request, memsys.mb_ports,
                                        memsys.mb_banks, l2_line)
    return None


def _vc_groups_uniform(ea: int, count: int, stride: int,
                       width_words: int, l2_line: int):
    """Vector-cache plan for a uniform word stream, closed form.

    Equivalent to ``VectorCachePort.plan_for`` on the request's refs:
    a unit-stride (8-byte) stream packs ``width_words`` words per wide
    access; any other stride breaks every element into its own access.
    """
    if stride == 8 and count > 1:
        total = count * 8
        per = width_words * 8
        groups = [(ea + off, per if per <= total - off else total - off)
                  for off in range(0, total, per)]
    else:
        groups = [(ea + k * stride, 8) for k in range(count)]
    lines = []
    for addr, nbytes in groups:
        first = addr - addr % l2_line
        last_byte = addr + nbytes - 1
        last = last_byte - last_byte % l2_line
        lines.append((first,) if first == last
                     else tuple(range(first, last + 1, l2_line)))
    return groups, lines
