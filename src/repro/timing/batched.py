"""Two-phase batched timing model (pre-decode + scheduling walk).

This is the default timing pipeline.  It computes the exact same
schedule as :class:`repro.timing.reference.ReferencePipeline` — the
differential suite asserts bit-identical :class:`RunStats` — but in two
phases:

1. **Pre-decode** (:mod:`repro.timing.predecode`): batch passes lower
   the trace into struct-of-arrays (routing, latencies, occupancies,
   dense register ids, pre-planned memory requests, store-conflict
   line sets).  All schedule-independent statistics (instruction
   histograms, Table-1 vector lengths) come straight from the decode.

2. **Scheduling**: one tuned loop walks the decoded rows in program
   order, with the resource bookkeeping inlined (two-integer
   fetch/retire pools, dense list scoreboard, pre-planned memory
   requests) and the memory ports scheduled per request.
"""

from __future__ import annotations

from repro.isa.instructions import Program
from repro.timing.config import MemSysConfig, ProcessorConfig
from repro.timing.predecode import (
    KIND_D3MOVE,
    KIND_INT,
    KIND_MEM,
    SB_SIZE,
    VL_ID,
    DecodedTrace,
    decode,
    prime_from_layout,
    primed_layout,
)
from repro.timing.resources import (
    FuPool,
    InFlightLimiter,
    PackedSlots,
    SlotPool,
)
from repro.timing.stats import RunStats


class BatchedPipeline:
    """One simulation run: a processor config bound to a memory system."""

    def __init__(self, proc: ProcessorConfig, memsys: MemSysConfig):
        self.proc = proc
        self.memsys_config = memsys
        self.hierarchy, self.vector_port, self.l1_port = memsys.build()

        # fetch and retire claim with monotone floors: two-integer pools
        self._fetch_slots = PackedSlots(proc.fetch_width)
        self._retire_slots = PackedSlots(proc.retire_width)
        self._fetch_min = 0
        self._dispatch_min = 0
        self._window = InFlightLimiter(proc.window)
        self._lsq = InFlightLimiter(proc.lsq)
        self._rename = (InFlightLimiter(proc.extra_vector_regs),
                        InFlightLimiter(proc.extra_d3_regs))
        self._ptr_rename = InFlightLimiter(proc.extra_ptr_regs)

        self._int_issue = SlotPool(proc.int_issue)
        self._simd_issue = SlotPool(proc.simd_issue)
        self._mem_issue = SlotPool(proc.mem_issue)

        self._int_fus = FuPool(proc.int_fus)
        self._simd_fus = FuPool(proc.simd_fus)
        self._d3_read_port = FuPool(1)

        #: dense scoreboard: completion cycle per register id
        self._sb: list[int] = [0] * SB_SIZE
        self._store_lines: dict[int, int] = {}
        self._last_retire = 0
        self._rf3d_writes = 0
        self.stats = RunStats()

    # -- public ------------------------------------------------------------

    def run(self, program: Program, warm: bool = True) -> RunStats:
        """Simulate the whole trace; returns accumulated statistics.

        ``warm`` primes the caches with the trace's working set first
        (identical to the reference model's priming, by shared code).
        """
        decoded = decode(program, self.proc, self.memsys_config)
        if warm:
            self.prime_caches(program)
        self.stats.name = program.name
        self.stats.vector_port = self.vector_port.stats
        self.stats.l1_port = self.l1_port.stats
        self._walk(decoded)
        self._finalize(decoded)
        return self.stats

    def prime_caches(self, program: Program) -> None:
        """Install the trace's working set, then reset counters.

        Equivalent to the reference model's full prime walk: the memo-
        ized layout holds exactly the lines that walk leaves resident,
        in LRU order (see :func:`repro.timing.predecode.primed_layout`).
        """
        prime_from_layout(self.hierarchy,
                          primed_layout(program, self.hierarchy,
                                        self.proc.isa))

    # -- the scheduling walk -----------------------------------------------

    def _walk(self, d: DecodedTrace) -> None:
        """Walk the trace instruction-at-a-time over the decoded rows.

        Semantically the reference model's ``_step`` with every pure
        per-instruction computation already done by the decode pass and
        the resource bookkeeping inlined.
        """
        proc = self.proc
        fetch_width = proc.fetch_width
        bubble = proc.branch_bubble
        d3_latency = proc.d3_move_latency
        int_width = proc.int_issue
        simd_width = proc.simd_issue
        mem_width = proc.mem_issue
        retire_width = proc.retire_width
        window_cap = proc.window
        lsq_cap = proc.lsq
        ptr_cap = proc.extra_ptr_regs

        fetch = self._fetch_slots
        fetch_cycle = fetch.cycle
        fetch_in_use = fetch.used
        retire = self._retire_slots
        retire_cycle = retire.cycle
        retire_in_use = retire.used
        int_used = self._int_issue._used
        simd_used = self._simd_issue._used
        mem_used = self._mem_issue._used
        window_exits = self._window._exits
        lsq_exits = self._lsq._exits
        ptr_exits = self._ptr_rename._exits
        rename = [(lim._exits, lim.capacity) for lim in self._rename]
        int_free = self._int_fus._free_at
        simd_free = self._simd_fus._free_at
        d3_free = self._d3_read_port._free_at
        vector_schedule = self.vector_port.schedule
        l1_schedule = self.l1_port.schedule

        sb = self._sb
        store_lines = self._store_lines
        fetch_min = self._fetch_min
        dispatch_min = self._dispatch_min
        last_retire = self._last_retire
        rf3d_writes = self._rf3d_writes

        rows = d.core.rows
        occ = d.occ
        mem = d.mem

        for i in range(d.n):
            (kind, branch, latency, src_ids, dst_ids, ren, in_lsq,
             needs_vl, ptr_kind, ptr) = rows[i]

            # -- dispatch (fetch slot, window, LSQ, rename, pointer file)
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
            if len(window_exits) >= window_cap:
                gate = window_exits.popleft()
                if gate > cycle:
                    cycle = gate
            if in_lsq and len(lsq_exits) >= lsq_cap:
                gate = lsq_exits.popleft()
                if gate > cycle:
                    cycle = gate
            for code in ren:
                exits, cap = rename[code]
                if len(exits) >= cap:
                    gate = exits.popleft()
                    if gate > cycle:
                        cycle = gate
            if ptr_kind and len(ptr_exits) >= ptr_cap:
                gate = ptr_exits.popleft()
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

            # -- execute
            ptr_ready = None
            if kind == KIND_INT:
                slot = ready
                while int_used[slot] >= int_width:
                    slot += 1
                int_used[slot] += 1
                unit = min(int_free)
                start = slot if slot > unit else unit
                int_free[int_free.index(unit)] = start + 1
                complete = start + latency
            elif kind == KIND_MEM:
                to_l1, request, lines, is_store = mem[i]
                if not is_store:
                    for line in lines:
                        gate = store_lines.get(line, 0)
                        if gate > ready:
                            ready = gate
                slot = ready
                while mem_used[slot] >= mem_width:
                    slot += 1
                mem_used[slot] += 1
                sched = (l1_schedule if to_l1
                         else vector_schedule)(request, slot)
                complete = sched.complete
                if is_store:
                    for line in lines:
                        if complete > store_lines.get(line, 0):
                            store_lines[line] = complete
                elif ptr_kind:  # dvload3
                    rf3d_writes += sched.port_accesses
                    ptr_ready = sched.start + 1
            elif kind == KIND_D3MOVE:
                value = sb[ptr]
                if value > ready:
                    ready = value
                slot = ready
                while mem_used[slot] >= mem_width:
                    slot += 1
                mem_used[slot] += 1
                unit = d3_free[0]
                start = slot if slot > unit else unit
                occupancy = occ[i]
                d3_free[0] = start + occupancy
                complete = start + occupancy - 1 + d3_latency
                ptr_ready = start + 1
            else:  # KIND_SIMD
                slot = ready
                while simd_used[slot] >= simd_width:
                    slot += 1
                simd_used[slot] += 1
                unit = min(simd_free)
                start = slot if slot > unit else unit
                occupancy = occ[i]
                simd_free[simd_free.index(unit)] = start + occupancy
                complete = start + occupancy - 1 + latency

            # -- writeback + pointer-file recycling
            for reg in dst_ids:
                sb[reg] = complete
            if ptr_ready is not None:
                sb[ptr] = ptr_ready
                ptr_exits.append(ptr_ready)
            elif ptr_kind:
                ptr_exits.append(complete)

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
            window_exits.append(earliest)
            if in_lsq:
                lsq_exits.append(earliest)
            for code in ren:
                rename[code][0].append(earliest)

        fetch.cycle = fetch_cycle
        fetch.used = fetch_in_use
        retire.cycle = retire_cycle
        retire.used = retire_in_use
        self._fetch_min = fetch_min
        self._dispatch_min = dispatch_min
        self._last_retire = last_retire
        self._rf3d_writes = rf3d_writes

    # -- wholesale statistics ----------------------------------------------

    def _finalize(self, d: DecodedTrace) -> None:
        """Account everything that does not depend on the schedule."""
        core = d.core
        stats = self.stats
        stats.cycles = self._last_retire
        stats.instructions = core.n
        stats.by_class = dict(core.by_class)
        stats.by_opcode = dict(core.by_opcode)
        stats.rf3d_words = core.rf3d_words
        stats.rf3d_reads = core.rf3d_reads
        stats.rf3d_writes = self._rf3d_writes
        stats.veclen = core.veclen.copy()
        stats.l2_hit_rate = self.hierarchy.l2.stats.hit_rate
        stats.coherence_events = self.hierarchy.coherence_events
