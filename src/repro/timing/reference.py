"""The reference scalar timing model (the differential test oracle).

This is the original single-pass out-of-order model: it walks the
dynamic instruction trace in program order, one instruction at a time,
computing for every instruction its dispatch, issue, completion and
retirement cycles from:

* in-order fetch (``fetch_width``/cycle, taken-branch bubble),
* the 128-entry graduation window and 32-entry load/store queue
  (modeled as in-flight limiters gated by in-order retirement),
* rename-register headroom per register class,
* operand readiness through a register scoreboard (true dependences
  only — renaming removes WAR/WAW),
* issue-width slots and functional-unit occupancy (a MOM instruction
  holds its 4-lane unit for ceil(VL/4) cycles),
* the memory ports of the configured memory system, which account
  cache activity, effective bandwidth and traffic along the way.

Two faster models compute the same schedule.  The batched model
(:mod:`repro.timing.batched`) restructures this walk into a pre-decode
pass plus one scalar walk over the decoded rows
(``BatchedPipeline._walk``); the grid path (:mod:`repro.timing.grid`)
replays a trace's cache traffic once per cache geometry and then runs
a lean walk per configuration (``_schedule_lean``).  This class is kept
as the per-instruction formulation whose :class:`RunStats` both must
reproduce **bit-identically** (enforced by
``tests/test_timing_differential.py``).  Any semantic change to the
timing model must be made to all three.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError
from repro.isa.instructions import Instruction, Program
from repro.isa.opcodes import ExecClass, Opcode
from repro.isa.registers import RegClass, Register, VL
from repro.memsys.ports import request_for
from repro.timing.config import (
    DEFAULT_INT_LATENCY,
    DEFAULT_SIMD_LATENCY,
    MemSysConfig,
    OP_LATENCY,
    ProcessorConfig,
)
from repro.timing.predecode import prime_hierarchy
from repro.timing.resources import FuPool, InFlightLimiter, SlotPool
from repro.timing.stats import RunStats

_PTR = "ptr"  # scoreboard namespace for 3D pointer registers


class ReferencePipeline:
    """One simulation run: a processor config bound to a memory system."""

    def __init__(self, proc: ProcessorConfig, memsys: MemSysConfig):
        self.proc = proc
        self.memsys_config = memsys
        self.hierarchy, self.vector_port, self.l1_port = memsys.build()

        self._fetch_slots = SlotPool(proc.fetch_width)
        self._fetch_min = 0
        self._dispatch_min = 0
        self._window = InFlightLimiter(proc.window)
        self._lsq = InFlightLimiter(proc.lsq)
        # Accumulators are deliberately absent here: CLRACC is a zeroing
        # idiom (no physical register needed) and MOVACC reads through
        # the bypass network, so the 2/4 logical/physical accumulator
        # file of Table 3 does not gate candidate-loop overlap.  It
        # still feeds the area model.
        self._rename = {
            RegClass.VECTOR: InFlightLimiter(proc.extra_vector_regs),
            RegClass.VEC3D: InFlightLimiter(proc.extra_d3_regs),
        }
        self._ptr_rename = InFlightLimiter(proc.extra_ptr_regs)

        self._int_issue = SlotPool(proc.int_issue)
        self._simd_issue = SlotPool(proc.simd_issue)
        self._mem_issue = SlotPool(proc.mem_issue)
        self._retire_slots = SlotPool(proc.retire_width)

        self._int_fus = FuPool(proc.int_fus)
        self._simd_fus = FuPool(proc.simd_fus)
        self._d3_read_port = FuPool(1)

        self._ready: dict = {}
        self._store_lines: dict[int, int] = {}
        self._last_retire = 0
        self.stats = RunStats()

    # -- public ------------------------------------------------------------

    def run(self, program: Program, warm: bool = True) -> RunStats:
        """Simulate the whole trace; returns accumulated statistics.

        ``warm`` primes the caches with the trace's working set first,
        modeling the steady state the paper measures (whole videos and
        audio streams; L2 hit rates of 90-99%).  A cold run leaves the
        compulsory misses in — useful as an ablation, but with a
        single-frame trace they would dominate every other effect.
        """
        if warm:
            self.prime_caches(program)
        self.stats.name = program.name
        self.stats.vector_port = self.vector_port.stats
        self.stats.l1_port = self.l1_port.stats
        for inst in program:
            self._step(inst)
        self.stats.cycles = self._last_retire
        l2 = self.hierarchy.l2.stats
        self.stats.l2_hit_rate = l2.hit_rate
        self.stats.coherence_events = self.hierarchy.coherence_events
        return self.stats

    def prime_caches(self, program: Program) -> None:
        """Touch every line the trace references, then reset counters.

        Shared with the batched model (same helper, same touch order)
        so both models start from identical cache state.
        """
        prime_hierarchy(program, self.hierarchy, self.proc.isa)

    # -- per-instruction ------------------------------------------------------

    def _step(self, inst: Instruction) -> None:
        dispatch = self._dispatch(inst)
        ready = max(dispatch + 1, self._operand_ready(inst, dispatch))
        start, complete, ptr_ready = self._execute(inst, ready)
        self._writeback(inst, complete, ptr_ready)
        if inst.op in (Opcode.DVMOV3, Opcode.DVLOAD3):
            # The 7-bit pointer file is a small future file: its
            # entries recycle as soon as the pointer value is produced,
            # not at architectural retirement.
            self._ptr_rename.record_exit(
                ptr_ready if ptr_ready is not None else complete)
        self._retire(inst, complete)
        self._record(inst)

    def _dispatch(self, inst: Instruction) -> int:
        cycle = self._fetch_slots.claim(max(self._fetch_min,
                                            self._dispatch_min))
        if inst.op is Opcode.BRANCH:
            self._fetch_min = cycle + 1 + self.proc.branch_bubble
        cycle = self._window.admit(cycle)
        if inst.is_memory or inst.op is Opcode.DVMOV3:
            cycle = self._lsq.admit(cycle)
        for dst in inst.dsts:
            limiter = self._rename.get(dst.cls)
            if limiter is not None:
                cycle = limiter.admit(cycle)
        if inst.op in (Opcode.DVMOV3, Opcode.DVLOAD3):
            cycle = self._ptr_rename.admit(cycle)
        self._dispatch_min = cycle
        return cycle

    def _operand_ready(self, inst: Instruction, dispatch: int) -> int:
        ready = dispatch + 1
        for src in inst.srcs:
            ready = max(ready, self._ready.get(src, 0))
        if inst.vl > 1 or inst.op in (Opcode.VLD, Opcode.VST,
                                      Opcode.DVLOAD3, Opcode.DVMOV3):
            ready = max(ready, self._ready.get(VL, 0))
        if inst.op is Opcode.DVMOV3:
            ready = max(ready, self._ready.get(
                (_PTR, inst.srcs[0].index), 0))
        if inst.is_memory and inst.op not in (Opcode.VST, Opcode.ST):
            ready = max(ready, self._store_conflict(inst))
        return ready

    def _execute(self, inst: Instruction,
                 ready: int) -> tuple[int, int, int | None]:
        """Schedule on the right resource; returns (start, complete, ptr)."""
        cls = inst.exec_class
        if cls in (ExecClass.INT, ExecClass.CTRL, ExecClass.BRANCH):
            start = self._int_fus.claim(self._int_issue.claim(ready), 1)
            latency = OP_LATENCY.get(inst.op, DEFAULT_INT_LATENCY)
            return start, start + latency, None

        if cls is ExecClass.SIMD:
            occupancy = math.ceil(inst.vl / self.proc.simd_lanes)
            start = self._simd_fus.claim(
                self._simd_issue.claim(ready), occupancy)
            latency = OP_LATENCY.get(inst.op, DEFAULT_SIMD_LATENCY)
            return start, start + occupancy - 1 + latency, None

        if cls is ExecClass.V3DMOVE:
            occupancy = math.ceil(inst.vl / self.proc.d3_move_lanes)
            start = self._d3_read_port.claim(
                self._mem_issue.claim(ready), occupancy)
            complete = start + occupancy - 1 + self.proc.d3_move_latency
            self.stats.rf3d_words += inst.vl
            self.stats.rf3d_reads += 1
            return start, complete, start + 1

        # memory instructions
        port = self._route(inst)
        slot = self._mem_issue.claim(ready)
        sched = port.schedule(request_for(inst), slot)
        if inst.op in (Opcode.ST, Opcode.VST):
            self._note_store(inst, sched.complete)
        ptr_ready = None
        if inst.op is Opcode.DVLOAD3:
            self.stats.rf3d_writes += sched.port_accesses
            # The pointer init value (0 or end-of-element) is an
            # immediate known at decode; slices need not wait for the
            # load data to learn their offsets.
            ptr_ready = sched.start + 1
        return sched.start, sched.complete, ptr_ready

    def _route(self, inst: Instruction):
        """Pick the memory path for this instruction (paper Sec. 5.3)."""
        if inst.op in (Opcode.LD, Opcode.ST):
            return self.l1_port
        if self.proc.isa == "mmx":
            # MMX-style media accesses go through the L1 ports
            if inst.op is Opcode.DVLOAD3:
                raise ConfigError("mmx configuration cannot run dvload3")
            return self.l1_port
        if inst.op is Opcode.DVLOAD3 and self.proc.isa != "mom3d":
            raise ConfigError("dvload3 requires the mom3d configuration")
        return self.vector_port

    def _writeback(self, inst: Instruction, complete: int,
                   ptr_ready: int | None) -> None:
        for dst in inst.dsts:
            self._ready[dst] = complete
        if ptr_ready is not None:
            reg = inst.dsts[0] if inst.op is Opcode.DVLOAD3 else inst.srcs[0]
            self._ready[(_PTR, reg.index)] = ptr_ready

    def _retire(self, inst: Instruction, complete: int) -> None:
        cycle = self._retire_slots.claim(max(complete + 1,
                                             self._last_retire))
        self._last_retire = cycle
        self._window.record_exit(cycle)
        if inst.is_memory or inst.op is Opcode.DVMOV3:
            self._lsq.record_exit(cycle)
        for dst in inst.dsts:
            limiter = self._rename.get(dst.cls)
            if limiter is not None:
                limiter.record_exit(cycle)

    # -- memory ordering ---------------------------------------------------------

    def _touched_lines(self, inst: Instruction) -> list[int]:
        line = self.hierarchy.config.l2_line
        width = (inst.wwords or 1) * 8
        count = 1 if inst.op in (Opcode.LD, Opcode.ST) else inst.vl
        lines = set()
        # A scalar LD/ST is a one-element stream: its 8-byte access can
        # still straddle a line boundary, so the end byte is checked
        # like any vector element's.
        for k in range(count):
            addr = inst.ea + k * (inst.stride or 0)
            lines.add(addr // line)
            lines.add((addr + width - 1) // line)
        return sorted(lines)

    def _store_conflict(self, inst: Instruction) -> int:
        gate = 0
        for line in self._touched_lines(inst):
            gate = max(gate, self._store_lines.get(line, 0))
        return gate

    def _note_store(self, inst: Instruction, complete: int) -> None:
        for line in self._touched_lines(inst):
            self._store_lines[line] = max(
                self._store_lines.get(line, 0), complete)

    # -- stats ----------------------------------------------------------------

    def _record(self, inst: Instruction) -> None:
        stats = self.stats
        stats.instructions += 1
        cls = inst.exec_class
        stats.by_class[cls] = stats.by_class.get(cls, 0) + 1
        stats.by_opcode[inst.op] = stats.by_opcode.get(inst.op, 0) + 1
        lanes = inst.etype.lanes if inst.etype is not None else 8
        if inst.op in (Opcode.VLD, Opcode.VST):
            stats.veclen.record_vector_memory(lanes, inst.vl)
        elif inst.op is Opcode.DVLOAD3:
            stats.veclen.record_dvload3(inst.dsts[0].index, lanes, inst.vl)
        elif inst.op is Opcode.DVMOV3:
            stats.veclen.record_dvmov3(inst.srcs[0].index)
