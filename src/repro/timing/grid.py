"""Grid-axis simulation: one trace, many configurations, one pass.

Every real workload the engine serves — the paper's fig3/fig9/table1
grids, ``Sweep`` products, service jobs, remote shards — is a *config
sweep over a shared trace*.  :class:`GridPipeline` exploits that axis
the way the paper's 3D insight exploits the hardware's orthogonal
axis: the program is lowered once (:func:`repro.timing.predecode
._decode_core`), the per-configuration overlays are stacked next to
each other, and everything that is a pure function of the *trace* —
row decode, limiter gate schedules, store-conflict structure — is
computed once per group instead of once per config.

Per configuration the simulation itself is split into two exact
phases:

1. **Traffic replay** (:func:`_replay_traffic`): every cache access a
   run performs happens in program order, so the hit/miss stream, the
   port occupancy profile, the coherence events and *all* port/cache
   statistics are independent of the schedule.  The replay walks the
   decoded memory stream against a fresh hierarchy and reduces each
   memory instruction to a handful of integers (port busy cycles, a
   completion offset, per-reference L1 latencies).  The L2 latency
   only ever adds to those integers, once per trip to the L2, so the
   replay runs once per *geometry* (every setting but the L2 latency)
   and each configuration adds its own latency per recorded trip.

2. **Lean scheduling** (:func:`_schedule_lean`): with the memory
   system reduced to precomputed streams, the cycle-accurate walk is
   a pure max-plus recurrence over small integers whose only output
   is the final retire cycle.  The in-flight limiter deques of the
   batched model collapse to precomputed gate indices into the retire
   history (retire times are monotone, so each instruction's combined
   window/LSQ/rename gate is a single array read).  The walk visits
   every instruction once, in program order.

Both phases compute exactly what :class:`~repro.timing.batched
.BatchedPipeline` computes — ``tests/test_timing_differential.py``
pins every paper grid point, warm and cold, to bit-identical
``RunStats.to_dict()`` across grid-mode on/off/auto, and
``tests/test_grid_properties.py`` pins latency sweeps to the per-spec
path.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import astuple, dataclass, replace
from heapq import heapreplace

import numpy as np

from repro.isa.instructions import Program
from repro.memsys.ports import PortStats
from repro.timing.config import MemSysConfig, ProcessorConfig
from repro.timing.predecode import (
    KIND_D3MOVE,
    KIND_INT,
    KIND_MEM,
    KIND_SIMD,
    SB_SIZE,
    VL_ID,
    DecodedTrace,
    _program_memo,
    decode,
    prime_from_layout,
    primed_layout,
)
from repro.timing.stats import RunStats

#: Memory-path codes of the lean scheduler (per memory instruction).
_MK_L1 = 0        # real L1 port (scalar LD/ST, all MMX media)
_MK_VEC = 1       # stateful vector port (vector cache / multibank)
_MK_IDEAL = 2     # ideal port (either path): complete = slot + 1


# -- trace-level shared precomputation ---------------------------------------


@dataclass
class _GateTables:
    """Per-(trace, capacity) limiter gates, memoized on the program.

    ``gidx[i]`` is the largest retire-history index whose recorded
    exit gates instruction ``i``'s dispatch through the graduation
    window, the LSQ or a rename class (-1 when none binds).  Retire
    times are monotone nondecreasing, so the max over every gate an
    instruction would pop equals the single entry at the largest
    index — the whole deque discipline of the batched model reduces
    to one precomputed read per instruction.  Pointer-file gates are
    kept separate (``ptr_gidx`` indexes ``ptr_hist``) because pointer
    exits recycle at ``start + 1`` and are not monotone.
    """

    gidx: list[int]
    ptr_gidx: list[int]


def _simulate_pops(admissions: list[tuple[int, int]], cap: int,
                   gate_idx: list[int]) -> None:
    """Fold one limiter's exact pop schedule into ``gate_idx``.

    ``admissions`` lists ``(instruction index, admission count)`` for
    every instruction that admits into the limiter, in program order.
    Replays the deque semantics of the scalar loop symbolically: the
    deque holds exit *indices* (which admission recorded them), pops
    happen exactly when the recorded backlog reaches ``cap``, and the
    popped admission's instruction index is max-folded into the
    per-instruction gate table (retire times are monotone, so only the
    largest popped index matters).
    """
    pushes = 0          # admissions whose exits are recorded (insts done)
    pops = 0
    adm_inst: list[int] = []
    for i, count in admissions:
        for _ in range(count):
            if pushes - pops >= cap:
                gate = adm_inst[pops]
                pops += 1
                if gate > gate_idx[i]:
                    gate_idx[i] = gate
        adm_inst.extend([i] * count)
        pushes += count


def _gate_tables(program: Program, d: DecodedTrace,
                 proc: ProcessorConfig) -> _GateTables:
    """Gate tables for one trace under one capacity profile (memoized)."""
    key = ("grid-gates", proc.window, proc.lsq, proc.extra_vector_regs,
           proc.extra_d3_regs, proc.extra_ptr_regs)
    memo = _program_memo(program)
    tables = memo.get(key)
    if tables is not None:
        return tables

    core = d.core
    n = core.n
    rows = core.rows

    # per-class admission counts, computed once per core
    flags = core.aux.get("grid-gate-admissions")
    if flags is None:
        ren0 = [0] * n
        ren1 = [0] * n
        ptrf = [0] * n
        for i, row in enumerate(rows):
            ren = row[5]
            if ren:
                c0 = ren.count(0)
                ren0[i] = c0
                ren1[i] = len(ren) - c0
            if row[8]:
                ptrf[i] = 1
        flags = core.aux["grid-gate-admissions"] = (
            np.asarray(ren0, dtype=np.int64),
            np.asarray(ren1, dtype=np.int64),
            np.asarray(ptrf, dtype=np.int64))
    ren0, ren1, ptrf = flags

    # graduation window: one admission per instruction
    window = proc.window
    garr = np.arange(-window, n - window, dtype=np.int64)
    garr[:min(window, n)] = -1

    def fold_single(positions: np.ndarray, cap: int) -> None:
        # one admission per listed instruction: the k-th (k >= cap)
        # pops the exit recorded by admission k - cap
        if len(positions) > cap:
            tail = positions[cap:]
            garr[tail] = np.maximum(garr[tail], positions[:-cap])

    # LSQ: one admission per memory-issue instruction (3D moves and
    # memory ops — exactly the rows whose kind reaches the mem queue)
    fold_single(np.nonzero(core.kind_arr >= KIND_D3MOVE)[0], proc.lsq)

    # rename classes: usually one admission per renamed destination;
    # the symbolic replay handles multi-admission instructions exactly
    caps = (proc.extra_vector_regs, proc.extra_d3_regs)
    gidx: list[int] | None = None
    for counts, cap in ((ren0, caps[0]), (ren1, caps[1])):
        positions = np.nonzero(counts)[0]
        if not len(positions):
            continue
        if int(counts[positions].max()) == 1:
            fold_single(positions, cap)
        else:
            if gidx is None:
                gidx = garr.tolist()
            _simulate_pops([(int(i), int(counts[i]))
                            for i in positions], cap, gidx)
    if gidx is None:
        gidx = garr.tolist()
    else:
        # merge the numpy folds done after the list snapshot
        gidx = np.maximum(np.asarray(gidx, dtype=np.int64),
                          garr).tolist()

    # pointer file: separate table into the (non-monotone) ptr history
    ptr_cap = proc.extra_ptr_regs
    parr = np.full(n, -1, dtype=np.int64)
    ptr_positions = np.nonzero(ptrf)[0]
    if len(ptr_positions) > ptr_cap:
        parr[ptr_positions[ptr_cap:]] = np.arange(
            len(ptr_positions) - ptr_cap, dtype=np.int64)
    ptr_gidx = parr.tolist()

    tables = _GateTables(gidx=gidx, ptr_gidx=ptr_gidx)
    memo[key] = tables
    return tables


def _store_gate_lines(program: Program, d: DecodedTrace,
                      l2_line: int) -> list[tuple]:
    """Store-conflict gate plan for one trace/line-size (memoized).

    Per memory ordinal, the lines a store must record a conflict gate
    for, restricted to lines some *later* load actually touches (a
    gate nothing ever reads is unobservable); loads get ``()``.
    """
    memo = _program_memo(program)
    key = ("grid-store-gates", l2_line)
    gate_lines = memo.get(key)
    if gate_lines is not None:
        return gate_lines
    last_load: dict[int, int] = {}
    mem = list(d.mem.values())
    for m, (_to_l1, _request, lines, is_store) in enumerate(mem):
        if not is_store:
            for line in lines:
                last_load[line] = m
    gate_lines = []
    for m, (_to_l1, _request, lines, is_store) in enumerate(mem):
        if is_store:
            gate_lines.append(tuple(
                line for line in lines
                if last_load.get(line, -1) > m))
        else:
            gate_lines.append(())
    memo[key] = gate_lines
    return gate_lines


# -- per-configuration traffic replay ----------------------------------------


@dataclass
class _Traffic:
    """Everything a configuration's memory system contributes, reduced
    to schedule-independent data.

    Streams are indexed by memory-instruction ordinal ``m`` (program
    order).  ``busy``/``offset`` drive the stateful vector port
    (``complete = start + offset[m]``); ``ref_lat`` holds per-reference
    L1 latencies for L1-routed requests (``ref_off`` delimits them).
    The port/cache statistics of the whole run are final — cache state
    evolves in program order, untouched by cycle timing.

    ``trips``/``ref_trips`` flag (0/1) the offsets and reference
    latencies that carry one L2 latency: a vector-port read, an L1
    load that misses the L1, a store that misses the L2.  Nothing else
    reads the L2 latency, so :func:`_at_latency` turns one replay at
    latency 0 into the traffic of any non-negative L2 latency.
    """

    kinds: list[int]          # _MK_* per memory ordinal
    stores: list[bool]
    lines: list[tuple]
    busy: list[int]
    offset: list[int]
    trips: list[int]
    ref_off: list[int]
    ref_lat: list[int]
    ref_trips: list[int]
    vector_stats: PortStats
    l1_stats: PortStats
    rf3d_writes: int
    l2_hit_rate: float
    coherence_events: int


def _resident_after_prime(program: Program, d: DecodedTrace,
                          hierarchy, isa: str) -> bool:
    """True when the primed caches hold the trace's whole working set.

    The prime walk touches exactly the lines the run will touch; when
    no cache set overflowed its ways during priming (the memoized
    layout kept every distinct line), a warm run can never miss or
    evict — which licenses the closed-form replay below.
    """
    from repro.timing.predecode import _line_stream

    memo = _program_memo(program)
    l1 = hierarchy.l1
    l2 = hierarchy.l2
    key = ("grid-resident", isa, l1.line_bytes, l1.n_sets, l1.ways,
           l2.line_bytes, l2.n_sets, l2.ways)
    resident = memo.get(key)
    if resident is None:
        layout = primed_layout(program, hierarchy, isa)
        geometry = d.core.mem_geometry
        l1_geometry = [g for g in geometry if g[5] or isa == "mmx"]
        distinct_l2 = len(set(_line_stream(geometry, l2.line_bytes)))
        distinct_l1 = len(set(_line_stream(l1_geometry, l1.line_bytes)))
        resident = (len(layout[0]) == distinct_l2
                    and len(layout[1]) == distinct_l1)
        memo[key] = resident
    return resident


def _replay_traffic(d: DecodedTrace, proc: ProcessorConfig,
                    memsys: MemSysConfig, warm: bool,
                    program: Program) -> _Traffic:
    """Replay the trace's memory traffic in program order.

    Performs the exact cache-state walk the batched pipeline's port
    scheduling performs — same accesses, same order, same statistics —
    but decoupled from cycle timing: vector-port schedules are taken
    at ``start = 0`` (their completion offsets are linear in the start
    cycle), and L1 references record their latencies for the lean
    scheduler's slot packing.  Offsets and latencies hold ``memsys``'s
    own L2 latency, and the trip flags mark where it went in;
    :meth:`GridPipeline.run` replays at L2 latency 0 and lets
    :func:`_at_latency` add each configuration's own.
    """
    rows = d.core.rows
    kinds: list[int] = []
    stores: list[bool] = []
    lines_out: list[tuple] = []
    busy: list[int] = []
    offset: list[int] = []
    trips: list[int] = []
    ref_off: list[int] = [0]
    ref_lat: list[int] = []
    ref_trips: list[int] = []
    rf3d_writes = 0

    if memsys.kind == "ideal":
        # Ideal ports never consult the hierarchy: both paths complete
        # one cycle after issue and the statistics are closed-form.
        vstats = PortStats()
        lstats = PortStats()
        for i, (to_l1, request, lines, is_store) in d.mem.items():
            kinds.append(_MK_IDEAL)
            stores.append(is_store)
            lines_out.append(lines)
            busy.append(0)
            offset.append(1)
            trips.append(0)
            ref_off.append(ref_off[-1])
            stats = lstats if to_l1 else vstats
            stats.requests += 1
            stats.hits += len(request.refs)
            if request.is_write:
                stats.words_stored += request.useful_words
            else:
                stats.words_loaded += request.useful_words
        return _Traffic(kinds=kinds, stores=stores, lines=lines_out,
                        busy=busy, offset=offset, trips=trips,
                        ref_off=ref_off, ref_lat=ref_lat,
                        ref_trips=ref_trips, vector_stats=vstats,
                        l1_stats=lstats, rf3d_writes=0,
                        l2_hit_rate=1.0, coherence_events=0)

    hierarchy, vector_port, l1_port = memsys.build()
    all_l1 = proc.isa == "mmx" or all(g[5] for g in d.core.mem_geometry)
    if warm and all_l1:
        if _resident_after_prime(program, d, hierarchy, proc.isa):
            # Closed form: the whole working set is resident after
            # priming and every access goes through the L1, so a warm
            # run hits on every reference (write-through stores hit the
            # L2 too), evicts nothing and raises no coherence traffic.
            #
            # When additionally every request is single-reference, the
            # L1 port can never saturate (at most ``mem_issue`` claims
            # land per cycle and ``mem_issue <= l1_ports``) and with a
            # 1-cycle latency each request completes exactly one cycle
            # after issue — the ideal-port transition function.  The
            # streams are normalized to the ideal path in that case,
            # which makes configurations differing only in their
            # (unused) vector-port design schedule-identical.
            l1_latency = hierarchy.config.l1_latency
            # the port-never-binds proof also needs the L1 scan floor
            # provably inert: completion spread over the graduation
            # window must stay under the scan hysteresis (2048 cycles)
            spread = proc.window * (max(d.occ, default=1) + 5)
            as_ideal = (l1_latency == 1
                        and proc.mem_issue <= proc.l1_ports
                        and spread <= 2048
                        and all(len(request.refs) == 1
                                for _t, request, _l, _s
                                in d.mem.values()))
            lstats = PortStats()
            for i, (_to_l1, request, lines, is_store) \
                    in d.mem.items():
                if as_ideal:
                    kinds.append(_MK_IDEAL)
                    busy.append(0)
                    offset.append(1)
                else:
                    kinds.append(_MK_L1)
                    busy.append(0)
                    offset.append(0)
                trips.append(0)
                stores.append(is_store)
                lines_out.append(lines)
                n_refs = len(request.refs)
                if not as_ideal:
                    ref_lat.extend([l1_latency] * n_refs)
                    ref_trips.extend([0] * n_refs)
                ref_off.append(len(ref_lat))
                lstats.requests += 1
                lstats.port_accesses += n_refs
                lstats.cache_accesses += n_refs
                lstats.busy_cycles += n_refs
                lstats.hits += n_refs
                if request.is_write:
                    lstats.words_stored += request.useful_words
                else:
                    lstats.words_loaded += request.useful_words
            return _Traffic(kinds=kinds, stores=stores,
                            lines=lines_out, busy=busy, offset=offset,
                            trips=trips, ref_off=ref_off,
                            ref_lat=ref_lat, ref_trips=ref_trips,
                            vector_stats=PortStats(), l1_stats=lstats,
                            rf3d_writes=0, l2_hit_rate=1.0,
                            coherence_events=0)

    if warm:
        prime_from_layout(hierarchy,
                          primed_layout(program, hierarchy, proc.isa))
    # inlined CacheHierarchy.scalar_access with the L1 probe fused into
    # the access (the access computes the same pre-mutation hit bit)
    l1_access = hierarchy.l1.access
    l2_access = hierarchy.l2.access
    claim_scalar = hierarchy._claim_for_scalar
    fetch_line = hierarchy.mainmem.fetch_line
    l1_latency = hierarchy.config.l1_latency
    l2_latency = hierarchy.config.l2_latency
    lstats = l1_port.stats
    for i, (to_l1, request, lines, is_store) in d.mem.items():
        stores.append(is_store)
        lines_out.append(lines)
        if to_l1:
            kinds.append(_MK_L1)
            busy.append(0)
            offset.append(0)
            trips.append(0)
            refs = request.refs
            is_write = request.is_write
            hits = 0
            for addr, _nbytes in refs:
                l1_hit = l1_access(addr, is_write)
                latency = l1_latency
                trip = 0
                if l1_hit:
                    hits += 1
                if is_write:
                    if not l2_access(addr, True):
                        latency += l2_latency + fetch_line()
                        trip = 1
                    claim_scalar(addr)
                elif not l1_hit:
                    latency += l2_latency
                    trip = 1
                    if not l2_access(addr, False):
                        latency += fetch_line()
                    claim_scalar(addr)
                ref_lat.append(latency)
                ref_trips.append(trip)
            ref_off.append(len(ref_lat))
            n_refs = len(refs)
            lstats.requests += 1
            lstats.port_accesses += n_refs
            lstats.cache_accesses += n_refs
            lstats.busy_cycles += n_refs
            lstats.hits += hits
            lstats.misses += n_refs - hits
            if is_write:
                lstats.words_stored += request.useful_words
            else:
                lstats.words_loaded += request.useful_words
        else:
            kinds.append(_MK_VEC)
            ref_off.append(len(ref_lat))
            sched = vector_port._schedule(request, 0)
            vector_port.stats.add(sched, request.is_write)
            busy.append(sched.busy_cycles)
            offset.append(sched.complete)
            # a read completes at start + l2_latency + max_k(k + extra_k)
            # (every request has a reference); a store at start + busy
            trips.append(0 if request.is_write else 1)
            if rows[i][8]:  # dvload3 fills the 3D register file
                rf3d_writes += sched.port_accesses
    return _Traffic(kinds=kinds, stores=stores, lines=lines_out,
                    busy=busy, offset=offset, trips=trips,
                    ref_off=ref_off, ref_lat=ref_lat, ref_trips=ref_trips,
                    vector_stats=vector_port.stats, l1_stats=lstats,
                    rf3d_writes=rf3d_writes,
                    l2_hit_rate=hierarchy.l2.stats.hit_rate,
                    coherence_events=hierarchy.coherence_events)


def _replay_key(proc: ProcessorConfig, memsys: MemSysConfig) -> tuple:
    """Everything :func:`_replay_traffic` reads of a configuration
    (all of it but the memory system's name)."""
    return (proc, memsys.kind, memsys.vc_width_words, memsys.mb_ports,
            memsys.mb_banks, astuple(memsys.hierarchy))


def _at_latency(base: _Traffic, l2_latency: int) -> _Traffic:
    """``base`` with ``l2_latency`` more cycles on every L2 trip.

    The statistics are copied, so no two configurations' ``RunStats``
    share a ``PortStats`` object.
    """
    offset, ref_lat = base.offset, base.ref_lat
    if l2_latency:
        offset = [value + l2_latency * trip
                  for value, trip in zip(offset, base.trips)]
        ref_lat = [value + l2_latency * trip
                   for value, trip in zip(ref_lat, base.ref_trips)]
    return replace(base, offset=offset, ref_lat=ref_lat,
                   vector_stats=replace(base.vector_stats),
                   l1_stats=replace(base.l1_stats))


# -- the lean scheduler ------------------------------------------------------


def _schedule_lean(d: DecodedTrace, proc: ProcessorConfig,
                   traffic: _Traffic, gates: _GateTables,
                   gate_lines: list) -> int:
    """Exact max-plus walk of the trace; returns the final retire cycle.

    Semantically :meth:`~repro.timing.batched.BatchedPipeline._walk`
    with every schedule-independent quantity already resolved: limiter
    gates are precomputed indices, memory completions come from the
    traffic streams, and no statistics are accumulated (the schedule's
    only observable is the cycle count).
    """
    core = d.core
    n = core.n
    rows = core.rows
    occ = d.occ
    gidx = gates.gidx
    ptr_gidx = gates.ptr_gidx
    mk = traffic.kinds
    mstore = traffic.stores
    mlines = traffic.lines
    mbusy = traffic.busy
    moffset = traffic.offset
    ref_off = traffic.ref_off
    ref_lat = traffic.ref_lat

    fetch_width = proc.fetch_width
    bubble = proc.branch_bubble
    d3_latency = proc.d3_move_latency
    int_width = proc.int_issue
    simd_width = proc.simd_issue
    mem_width = proc.mem_issue
    retire_width = proc.retire_width
    l1_ports = proc.l1_ports

    fetch_cycle = -1
    fetch_in_use = 0
    retire_cycle = -1
    retire_in_use = 0
    fetch_min = 0
    dispatch_min = 0
    last_retire = 0
    int_used: dict[int, int] = defaultdict(int)
    simd_used: dict[int, int] = defaultdict(int)
    mem_used: dict[int, int] = defaultdict(int)
    l1_used: dict[int, int] = defaultdict(int)
    l1_scan = 0
    # the units of a pool are identical, so only the multiset of their
    # free times matters: a min-heap claims the least-loaded unit and
    # books it in one call (all zeros is already a heap)
    int_free = [0] * proc.int_fus
    simd_free = [0] * proc.simd_fus
    d3_free = 0
    vec_free = 0
    sb = [0] * SB_SIZE
    store_lines: dict[int, int] = {}
    store_max = 0
    retire_hist = [0] * n
    ptr_hist = [0] * (n if ptr_gidx else 0)
    m = 0          # memory-instruction ordinal
    p_ord = 0      # pointer-admission ordinal

    for i, row, g, occupancy in zip(range(n), rows, gidx, occ):
        (kind, branch, latency, src_ids, dst_ids, _ren, _in_lsq,
         needs_vl, ptr_kind, ptr) = row

        # -- dispatch: fetch packing + precomputed limiter gates
        cycle = fetch_min if fetch_min > dispatch_min else dispatch_min
        if cycle > fetch_cycle:
            fetch_cycle = cycle
            fetch_in_use = 1
        elif fetch_in_use < fetch_width:
            fetch_in_use += 1
            cycle = fetch_cycle
        else:
            fetch_cycle += 1
            fetch_in_use = 1
            cycle = fetch_cycle
        if branch:
            fetch_min = cycle + 1 + bubble
        if g >= 0:
            gate = retire_hist[g]
            if gate > cycle:
                cycle = gate
        if ptr_kind:
            pg = ptr_gidx[i]
            if pg >= 0:
                gate = ptr_hist[pg]
                if gate > cycle:
                    cycle = gate
        dispatch_min = cycle

        # -- operand readiness
        ready = cycle + 1
        for reg in src_ids:
            value = sb[reg]
            if value > ready:
                ready = value
        if needs_vl:
            value = sb[VL_ID]
            if value > ready:
                ready = value

        # -- execute, most frequent kind first; a 3D instruction also
        # writes its pointer back and records it for the pointer gate
        if kind == KIND_SIMD:
            slot = ready
            while simd_used[slot] >= simd_width:
                slot += 1
            simd_used[slot] += 1
            unit = simd_free[0]
            start = slot if slot > unit else unit
            heapreplace(simd_free, start + occupancy)
            complete = start + occupancy - 1 + latency
        elif kind == KIND_MEM:
            is_store = mstore[m]
            if not is_store and store_lines and store_max > ready:
                for line in mlines[m]:
                    gate = store_lines.get(line, 0)
                    if gate > ready:
                        ready = gate
            slot = ready
            while mem_used[slot] >= mem_width:
                slot += 1
            mem_used[slot] += 1
            path = mk[m]
            if path == _MK_VEC:
                start = slot if slot > vec_free else vec_free
                vec_free = start + mbusy[m]
                complete = start + moffset[m]
                if ptr_kind:  # dvload3
                    sb[ptr] = ptr_hist[p_ord] = start + 1
                    p_ord += 1
            elif path == _MK_IDEAL:
                complete = slot + 1
                if ptr_kind:
                    sb[ptr] = ptr_hist[p_ord] = complete
                    p_ord += 1
            else:  # _MK_L1: never a dvload3, which needs the mom3d ISA,
                # and that ISA sends only scalar LD/ST to the L1
                first = -1
                complete = slot
                for r in range(ref_off[m], ref_off[m + 1]):
                    c2 = slot if slot > l1_scan else l1_scan
                    while l1_used[c2] >= l1_ports:
                        c2 += 1
                    l1_used[c2] += 1
                    if c2 > l1_scan + 4096:
                        l1_scan = c2 - 2048
                    if first < 0:
                        first = c2
                    value = c2 + ref_lat[r]
                    if value > complete:
                        complete = value
                if is_store:
                    complete = (first if first >= 0 else slot) + 1
            if is_store:
                for line in gate_lines[m]:
                    if complete > store_lines.get(line, 0):
                        store_lines[line] = complete
                if complete > store_max:
                    store_max = complete
            m += 1
        elif kind == KIND_INT:
            slot = ready
            while int_used[slot] >= int_width:
                slot += 1
            int_used[slot] += 1
            unit = int_free[0]
            start = slot if slot > unit else unit
            heapreplace(int_free, start + 1)
            complete = start + latency
        else:  # KIND_D3MOVE
            value = sb[ptr]
            if value > ready:
                ready = value
            slot = ready
            while mem_used[slot] >= mem_width:
                slot += 1
            mem_used[slot] += 1
            start = slot if slot > d3_free else d3_free
            d3_free = start + occupancy
            complete = start + occupancy - 1 + d3_latency
            sb[ptr] = ptr_hist[p_ord] = start + 1
            p_ord += 1

        # -- writeback (pointer ids never alias a destination)
        for reg in dst_ids:
            sb[reg] = complete

        # -- in-order retire
        earliest = complete + 1
        if last_retire > earliest:
            earliest = last_retire
        if earliest > retire_cycle:
            retire_cycle = earliest
            retire_in_use = 1
        elif retire_in_use < retire_width:
            retire_in_use += 1
            earliest = retire_cycle
        else:
            retire_cycle += 1
            retire_in_use = 1
            earliest = retire_cycle
        last_retire = earliest
        retire_hist[i] = earliest

    return last_retire


# -- statistics assembly -----------------------------------------------------


def _assemble_stats(program: Program, d: DecodedTrace,
                    traffic: _Traffic, cycles: int) -> RunStats:
    """Build the RunStats one configuration's run reports.

    Mirrors ``BatchedPipeline._finalize`` exactly: everything but the
    cycle count comes from the core decode and the traffic replay.
    """
    core = d.core
    stats = RunStats()
    stats.name = program.name
    stats.cycles = cycles
    stats.instructions = core.n
    stats.by_class = dict(core.by_class)
    stats.by_opcode = dict(core.by_opcode)
    stats.rf3d_words = core.rf3d_words
    stats.rf3d_reads = core.rf3d_reads
    stats.rf3d_writes = traffic.rf3d_writes
    stats.vector_port = traffic.vector_stats
    stats.l1_port = traffic.l1_stats
    stats.veclen = core.veclen.copy()
    stats.l2_hit_rate = traffic.l2_hit_rate
    stats.coherence_events = traffic.coherence_events
    return stats


# -- public entry point ------------------------------------------------------


class GridPipeline:
    """Simulate one program under N configurations in a shared pass.

    The core decode, gate tables and store-gate plan are built once per
    trace and shared by the whole group; :meth:`run` then resolves each
    configuration with the two-phase replay + lean walk, replaying the
    traffic once per geometry, instantiating it per L2 latency, and
    walking once per distinct (processor, timing streams) pair.
    """

    def __init__(self, program: Program,
                 configs: list[tuple[ProcessorConfig, MemSysConfig]]):
        self.program = program
        self.configs = list(configs)

    def run(self, warm: bool = True) -> list[RunStats]:
        """Per-config statistics, index-aligned with ``configs``.

        Bit-identical to running each configuration through
        :class:`~repro.timing.batched.BatchedPipeline` on its own.
        """
        program = self.program
        results: list[RunStats] = []
        #: one replay per geometry, at L2 latency 0: members that
        #: differ only in their L2 latency derive their streams from it
        replays: dict[tuple, _Traffic] = {}
        #: (proc, l2_line, traffic, cycles) of already-scheduled group
        #: members — a config whose processor and timing streams match
        #: an earlier member computes the identical schedule
        scheduled: list[tuple] = []
        for proc, memsys in self.configs:
            d = decode(program, proc, memsys)
            l2_line = memsys.hierarchy.l2_line
            # a negative latency can clamp a vector read at its issue
            # cycle, so it is not additive: such a member replays at
            # its own latency
            latency = memsys.hierarchy.l2_latency
            base_latency = min(latency, 0)
            base_memsys = replace(memsys, hierarchy=replace(
                memsys.hierarchy, l2_latency=base_latency))
            key = _replay_key(proc, base_memsys)
            base = replays.get(key)
            if base is None:
                base = replays[key] = _replay_traffic(
                    d, proc, base_memsys, warm, program)
            traffic = _at_latency(base, latency - base_latency)
            cycles = None
            for proc2, line2, traffic2, cycles2 in scheduled:
                if (proc2 == proc and line2 == l2_line
                        and traffic2.kinds == traffic.kinds
                        and traffic2.stores == traffic.stores
                        and traffic2.busy == traffic.busy
                        and traffic2.offset == traffic.offset
                        and traffic2.ref_off == traffic.ref_off
                        and traffic2.ref_lat == traffic.ref_lat
                        and traffic2.lines == traffic.lines):
                    cycles = cycles2
                    break
            if cycles is None:
                cycles = _schedule_lean(
                    d, proc, traffic, _gate_tables(program, d, proc),
                    _store_gate_lines(program, d, l2_line))
                scheduled.append((proc, l2_line, traffic, cycles))
            results.append(_assemble_stats(program, d, traffic, cycles))
        return results


