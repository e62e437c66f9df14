"""The multi-banked cache port (paper Fig. 2a / Fig. 8a).

``n_ports`` memory ports connect to ``n_banks`` cache banks through a
crossbar.  Each port moves one 64-bit word per cycle; words are
interleaved across banks at word granularity.  Up to ``n_ports``
references issue per cycle provided no two hit the same bank — bank
conflicts serialize, which is what limits this expensive design's
scalability.

Accounting note: one *port access* (Fig. 6) is a cycle's worth of
concurrent bank references; *cache activity* (Table 4) counts every
bank reference individually, because each reference powers up a bank.
"""

from __future__ import annotations

from repro.memsys.hierarchy import CacheHierarchy
from repro.memsys.ports import WORD, MemRequest, PortSchedule, VectorPort


class MultiBankedPort(VectorPort):
    """Crossbar-connected banked L2 port."""

    name = "multi-banked"

    def __init__(self, hierarchy: CacheHierarchy, n_ports: int = 4,
                 n_banks: int = 8):
        super().__init__(hierarchy)
        self.n_ports = n_ports
        self.n_banks = n_banks

    @staticmethod
    def plan_for(request: MemRequest, n_ports: int, n_banks: int,
                 l2_line: int | None = None):
        """Decompose without a port instance (pre-decode entry point).

        With ``l2_line`` given (and word-aligned lines), the plan pairs
        each packed cycle with its words' L2 line addresses so
        ``_schedule`` skips the per-word line arithmetic.
        """
        cycles = _pack_cycles(_word_refs(request), n_ports, n_banks)
        if l2_line is None or l2_line % WORD:
            line_groups = None
        else:
            line_groups = [[addr - addr % l2_line for addr in group]
                           for group in cycles]
        return cycles, line_groups

    def _schedule(self, request: MemRequest, start: int) -> PortSchedule:
        if request.plan is None:
            cycles = _pack_cycles(_word_refs(request), self.n_ports,
                                  self.n_banks)
            line_groups = None
        else:
            cycles, line_groups = request.plan
        n_words = sum(len(group) for group in cycles)

        l2 = self.hierarchy.l2
        l2_latency = self.hierarchy.config.l2_latency
        line_access = self.hierarchy.vector_line_access
        sets = l2._sets
        n_sets = l2.n_sets
        line_bytes = l2.line_bytes
        is_write = request.is_write
        set_dirty = is_write and l2.write_back
        hits = misses = 0
        fast_hits = 0
        complete = start
        for k, group in enumerate(cycles):
            access_start = start + k
            worst_extra = 0
            if line_groups is None:
                for addr in group:
                    group_hits, group_misses, extra = self._touch_lines(
                        addr, WORD, is_write)
                    hits += group_hits
                    misses += group_misses
                    worst_extra = max(worst_extra, extra)
            else:
                for line in line_groups[k]:
                    # inline LRU-hit fast path: present and not
                    # scalar-owned is a plain hit with no penalty.
                    # Mirrors SetAssocCache.vector_access's hit case
                    line_no = line // line_bytes
                    tag = line_no // n_sets
                    cset = sets[line_no % n_sets]
                    entry = cset.get(tag)
                    if entry is not None and not entry.scalar_owned:
                        cset.move_to_end(tag)
                        if set_dirty:
                            entry.dirty = True
                        fast_hits += 1
                        continue
                    hit, extra = line_access(line, is_write)
                    if hit:
                        hits += 1
                    else:
                        misses += 1
                    if extra > worst_extra:
                        worst_extra = extra
            complete = max(complete, access_start + l2_latency + worst_extra)
        if fast_hits:
            hits += fast_hits
            if is_write:
                l2.stats.writes += fast_hits
            else:
                l2.stats.reads += fast_hits
        if request.is_write:
            complete = start + len(cycles)
        return PortSchedule(
            start=start, complete=complete, busy_cycles=len(cycles),
            port_accesses=len(cycles), cache_accesses=n_words,
            hits=hits, misses=misses, words=request.useful_words)


def _word_refs(request: MemRequest) -> list[int]:
    """Word-granularity reference addresses of one request."""
    words: list[int] = []
    for addr, nbytes in request.refs:
        first = addr - addr % WORD
        last = addr + nbytes - 1
        words.extend(range(first, last + 1, WORD))
    return words


def _pack_cycles(word_refs: list[int], n_ports: int,
                 n_banks: int) -> list[list[int]]:
    """Greedy cycle packing: up to ``n_ports`` refs per cycle, all
    banks distinct within a cycle."""
    cycles: list[list[int]] = []
    current: list[int] = []
    banks_used: set[int] = set()
    for addr in word_refs:
        bank = (addr // WORD) % n_banks
        if len(current) >= n_ports or bank in banks_used:
            cycles.append(current)
            current, banks_used = [], set()
        current.append(addr)
        banks_used.add(bank)
    if current:
        cycles.append(current)
    return cycles
