"""Memory-port abstractions shared by all vector memory-system designs.

A memory instruction is lowered to a :class:`MemRequest` (its reference
stream); a port schedules the request against its structural resources
and the L2, returning a :class:`PortSchedule` with cycle-accurate
occupancy plus the accounting the paper's figures need:

* ``port_accesses`` — cache accesses in the sense of Fig. 6 (one per
  port cycle, i.e. one per group of concurrently fetched words);
* ``cache_accesses`` — L2 activity in the sense of Table 4 (one per
  bank reference for the multi-banked design, one per wide access for
  the vector cache);
* ``words`` — useful 64-bit words moved between cache and registers,
  the traffic measure of Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.isa.opcodes import Opcode

if TYPE_CHECKING:
    from repro.isa.instructions import Instruction
    from repro.memsys.hierarchy import CacheHierarchy

WORD = 8  # bytes per 64-bit word


@dataclass
class MemRequest:
    """Reference stream of one memory instruction."""

    #: (address, nbytes) per architectural element reference.
    refs: list[tuple[int, int]]
    is_write: bool = False
    #: 64-bit words delivered to (or taken from) the register files.
    useful_words: int = 0
    #: True for DVLOAD3: fetch whole-line chunks into the 3D RF.
    line_mode: bool = False
    #: Optional pre-computed port decomposition (see
    #: :meth:`VectorPort.plan_request`).  A plan is a pure function of
    #: the request and the port geometry, so the batched pipeline's
    #: pre-decode pass attaches it once per trace instead of
    #: recomputing it on every ``schedule`` call.  Treated as
    #: immutable by the ports.
    plan: object | None = None


@dataclass
class PortSchedule:
    """Result of scheduling one request on a port."""

    start: int
    complete: int
    busy_cycles: int
    port_accesses: int
    cache_accesses: int
    hits: int
    misses: int
    words: int


@dataclass
class PortStats:
    """Accumulated per-run accounting for one port."""

    requests: int = 0
    port_accesses: int = 0
    cache_accesses: int = 0
    hits: int = 0
    misses: int = 0
    words_loaded: int = 0
    words_stored: int = 0
    busy_cycles: int = 0

    def add(self, sched: PortSchedule, is_write: bool) -> None:
        self.requests += 1
        self.port_accesses += sched.port_accesses
        self.cache_accesses += sched.cache_accesses
        self.hits += sched.hits
        self.misses += sched.misses
        self.busy_cycles += sched.busy_cycles
        if is_write:
            self.words_stored += sched.words
        else:
            self.words_loaded += sched.words

    @property
    def words(self) -> int:
        """Total 64-bit words moved through the port."""
        return self.words_loaded + self.words_stored

    @property
    def effective_bandwidth(self) -> float:
        """Average words per cache access (the paper's Fig. 6 metric)."""
        if self.port_accesses == 0:
            return 0.0
        return self.words / self.port_accesses


def request_for(inst: Instruction) -> MemRequest:
    """Lower a memory instruction to its reference stream."""
    if inst.op in (Opcode.LD, Opcode.ST):
        return MemRequest(refs=[(inst.ea, WORD)],
                          is_write=inst.op is Opcode.ST, useful_words=1)
    if inst.op in (Opcode.VLD, Opcode.VST):
        refs = [(inst.ea + k * inst.stride, WORD) for k in range(inst.vl)]
        return MemRequest(refs=refs, is_write=inst.op is Opcode.VST,
                          useful_words=inst.vl)
    if inst.op is Opcode.DVLOAD3:
        width = inst.wwords * WORD
        refs = [(inst.ea + k * inst.stride, width) for k in range(inst.vl)]
        return MemRequest(refs=refs, is_write=False,
                          useful_words=inst.vl * inst.wwords,
                          line_mode=True)
    raise ValueError(f"not a memory opcode: {inst.op}")


def requests_for(program) -> list[MemRequest | None]:
    """Batched :func:`request_for`: lower a whole trace in one pass.

    Returns a list aligned with the program's instruction indices;
    non-memory slots hold ``None``.  Convenience entry point for
    callers that replay a trace's traffic against a port (the batched
    pipeline's pre-decode pass calls :func:`request_for` per memory
    instruction inside its own trace walk and attaches port plans on
    top — see ``repro.timing.predecode``).
    """
    return [request_for(inst) if inst.is_memory else None
            for inst in program]


class VectorPort:
    """Base class: owns the hierarchy handle, stats and the busy pointer."""

    name = "port"

    def __init__(self, hierarchy: CacheHierarchy):
        self.hierarchy = hierarchy
        self.stats = PortStats()
        self._next_free = 0

    def schedule(self, request: MemRequest, earliest: int) -> PortSchedule:
        """Schedule ``request`` no earlier than cycle ``earliest``."""
        sched = self._schedule(request, max(earliest, self._next_free))
        self._next_free = sched.start + sched.busy_cycles
        self.stats.add(sched, request.is_write)
        return sched

    def schedule_batch(self, requests, earliests) -> list[PortSchedule]:
        """Schedule several requests in order.

        The port is a serially-reused structural resource, so batching
        cannot reorder: each request is scheduled no earlier than its
        own ``earliest`` and behind its predecessors.  Entry point for
        callers that have already resolved all issue cycles (tests and
        traffic replays; the timing pipelines resolve issue cycles one
        instruction at a time and call :meth:`schedule` directly).
        """
        return [self.schedule(request, earliest)
                for request, earliest in zip(requests, earliests)]

    def plan_request(self, request: MemRequest):
        """Pure decomposition of ``request`` for this port design.

        Returns an opaque plan ``_schedule`` accepts via
        ``request.plan`` to skip recomputing the grouping; the base
        design has nothing to precompute.
        """
        return None

    def _schedule(self, request: MemRequest, start: int) -> PortSchedule:
        raise NotImplementedError

    def _touch_lines(self, addr: int, nbytes: int,
                     is_write: bool) -> tuple[int, int, int]:
        """Access every L2 line under [addr, addr+nbytes).

        Returns (hits, misses, extra_latency).
        """
        hits = misses = extra = 0
        for line in self.hierarchy.l2.lines_touched(addr, nbytes):
            hit, penalty = self.hierarchy.vector_line_access(line, is_write)
            extra = max(extra, penalty)
            if hit:
                hits += 1
            else:
                misses += 1
        return hits, misses, extra
