"""Idealistic memory ports: 1-cycle latency, unbounded bandwidth.

This is the baseline the paper normalizes every slowdown against
(Sec. 3.1: "perfect cache, 1 cycle of latency, unbounded bandwidth"):
:class:`IdealPort` on the vector path, :class:`IdealL1Port` on the
scalar path.
"""

from __future__ import annotations

from repro.memsys.hierarchy import CacheHierarchy
from repro.memsys.l1port import L1Port
from repro.memsys.ports import MemRequest, PortSchedule, VectorPort


class IdealPort(VectorPort):
    """Perfect memory: every request completes one cycle after issue."""

    name = "ideal"

    def schedule(self, request: MemRequest, earliest: int) -> PortSchedule:
        # Unbounded bandwidth: do not serialize behind previous requests.
        sched = PortSchedule(
            start=earliest, complete=earliest + 1, busy_cycles=0,
            port_accesses=0, cache_accesses=0, hits=len(request.refs),
            misses=0, words=request.useful_words)
        self.stats.add(sched, request.is_write)
        return sched

    def _schedule(self, request: MemRequest, start: int) -> PortSchedule:
        raise AssertionError("IdealPort overrides schedule() directly")


class IdealL1Port(L1Port):
    """Perfect scalar path for the idealistic configuration."""

    def __init__(self, hierarchy: CacheHierarchy):
        super().__init__(hierarchy, n_ports=1_000_000)

    def schedule(self, request: MemRequest, earliest: int) -> PortSchedule:
        sched = PortSchedule(
            start=earliest, complete=earliest + 1, busy_cycles=0,
            port_accesses=0, cache_accesses=0, hits=len(request.refs),
            misses=0, words=request.useful_words)
        self.stats.add(sched, request.is_write)
        return sched
