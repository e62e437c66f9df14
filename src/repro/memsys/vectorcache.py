"""The vector cache port (port widening; paper Fig. 2b / Fig. 8b-c).

One access per cycle returns up to ``width_words`` consecutive 64-bit
words.  Internally the vector cache reads two interleaved banks (two
whole L2 lines) and selects the chunk with an interchange switch plus
shift & mask logic, so a chunk may straddle one line boundary without a
second access.

The same physical port serves the 3D extension in *line mode*
(Fig. 8c): one access per cycle moves a whole L2-line-sized chunk into
one lane of the 3D vector register file, which is how ``dvload3``
reaches an effective width of up to 16 words per access.
"""

from __future__ import annotations

from repro.memsys.hierarchy import CacheHierarchy
from repro.memsys.ports import WORD, MemRequest, PortSchedule, VectorPort


class VectorCachePort(VectorPort):
    """Single wide port into the L2 (the cheap design the paper favors)."""

    name = "vector-cache"

    def __init__(self, hierarchy: CacheHierarchy, width_words: int = 4):
        super().__init__(hierarchy)
        self.width_words = width_words

    @staticmethod
    def plan_for(request: MemRequest, width_words: int, l2_line: int):
        """Decompose without a port instance (pre-decode entry point).

        Line-mode plans are the distinct line list; regular plans pair
        each wide-access group with the L2 line addresses it overlaps,
        so ``_schedule`` is left with only the stateful cache walk.
        """
        if request.line_mode:
            return _distinct_lines(request, l2_line)
        groups = _element_groups(request, width_words)
        lines = [tuple(range(addr - addr % l2_line,
                             (addr + nbytes - 1)
                             - (addr + nbytes - 1) % l2_line + 1,
                             l2_line))
                 for addr, nbytes in groups]
        return groups, lines

    def _schedule(self, request: MemRequest, start: int) -> PortSchedule:
        if request.line_mode:
            return self._schedule_line_mode(request, start)
        if request.plan is None:
            groups = _element_groups(request, self.width_words)
            lines_touched = self.hierarchy.l2.lines_touched
            group_lines = [lines_touched(addr, nbytes)
                           for addr, nbytes in groups]
        else:
            groups, group_lines = request.plan
        l2 = self.hierarchy.l2
        l2_latency = self.hierarchy.config.l2_latency
        line_access = self.hierarchy.vector_line_access
        # inline LRU-hit fast path (the overwhelming case on a warm
        # L2): present and not scalar-owned means vector_line_access
        # would just bump LRU and count a hit with no extra latency.
        # Mirrors SetAssocCache.vector_access's hit case — keep in sync
        sets = l2._sets
        n_sets = l2.n_sets
        line_bytes = l2.line_bytes
        is_write = request.is_write
        set_dirty = is_write and l2.write_back
        hits = misses = 0
        fast_hits = 0
        complete = start
        for k, lines in enumerate(group_lines):
            extra = 0
            for line in lines:
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
                hit, penalty = line_access(line, is_write)
                if penalty > extra:
                    extra = penalty
                if hit:
                    hits += 1
                else:
                    misses += 1
            data_ready = start + k + l2_latency + extra
            if data_ready > complete:
                complete = data_ready
        if fast_hits:
            hits += fast_hits
            if is_write:
                l2.stats.writes += fast_hits
            else:
                l2.stats.reads += fast_hits
        if is_write:
            # stores retire into the cache; they do not produce a value
            complete = start + len(groups)
        return PortSchedule(
            start=start, complete=complete, busy_cycles=len(groups),
            port_accesses=len(groups), cache_accesses=len(groups),
            hits=hits, misses=misses, words=request.useful_words)

    def _schedule_line_mode(self, request: MemRequest,
                            start: int) -> PortSchedule:
        """dvload3: whole-line chunks streamed into the 3D RF lanes.

        The 3D RF lanes hang off one 128-byte bitline array (Fig. 8c):
        each cycle one lane absorbs a chunk, so the port is busy one
        cycle per element, but a *distinct L2 line* is only read once —
        contiguous or overlapping elements (DCT row slabs, correlation
        windows) are served from the two-line interchange latch without
        re-reading the array.  L2 activity therefore counts distinct
        lines, which is where the paper's activity reduction comes
        from.
        """
        distinct = request.plan
        if distinct is None:
            distinct = _distinct_lines(request,
                                       self.hierarchy.config.l2_line)
        l2 = self.hierarchy.l2
        l2_latency = self.hierarchy.config.l2_latency
        line_access = self.hierarchy.vector_line_access
        sets = l2._sets
        n_sets = l2.n_sets
        line_bytes = l2.line_bytes
        hits = misses = 0
        fast_hits = 0
        complete = start
        for k, line_addr in enumerate(distinct):
            # inline LRU-hit fast path (see _schedule)
            line_no = line_addr // line_bytes
            tag = line_no // n_sets
            cset = sets[line_no % n_sets]
            entry = cset.get(tag)
            if entry is not None and not entry.scalar_owned:
                cset.move_to_end(tag)
                fast_hits += 1
                ready = start + k + l2_latency
            else:
                hit, extra = line_access(line_addr, False)
                if hit:
                    hits += 1
                else:
                    misses += 1
                ready = start + k + l2_latency + extra
            if ready > complete:
                complete = ready
        if fast_hits:
            hits += fast_hits
            l2.stats.reads += fast_hits
        busy = max(len(request.refs), len(distinct))
        complete = max(complete, start + busy - 1 + l2_latency)
        return PortSchedule(
            start=start, complete=complete, busy_cycles=busy,
            port_accesses=len(distinct), cache_accesses=len(distinct),
            hits=hits, misses=misses, words=request.useful_words)

    def _element_groups(self, request: MemRequest) -> list[tuple[int, int]]:
        return _element_groups(request, self.width_words)


def _element_groups(request: MemRequest,
                    width_words: int) -> list[tuple[int, int]]:
    """Group consecutive word references into wide accesses.

    A group may contain up to ``width_words`` references whose
    addresses are consecutive; any stride other than one word
    breaks the run, which is exactly the vector cache's weakness
    the paper highlights (one reference per cycle for non-unit
    strides).
    """
    groups: list[tuple[int, int]] = []
    run_start = run_bytes = None
    for addr, nbytes in request.refs:
        if (run_start is not None
                and addr == run_start + run_bytes
                and run_bytes + nbytes <= width_words * WORD):
            run_bytes += nbytes
            continue
        if run_start is not None:
            groups.append((run_start, run_bytes))
        run_start, run_bytes = addr, nbytes
    if run_start is not None:
        groups.append((run_start, run_bytes))
    return groups


def _distinct_lines(request: MemRequest, line: int) -> list[int]:
    """Distinct L2 line addresses of a line-mode request, in first-touch
    order (the 3D RF reads each line from the array exactly once)."""
    distinct: list[int] = []
    seen: set[int] = set()
    for addr, nbytes in request.refs:
        first = addr - addr % line
        last = (addr + nbytes - 1) - (addr + nbytes - 1) % line
        for line_addr in range(first, last + 1, line):
            if line_addr not in seen:
                seen.add(line_addr)
                distinct.append(line_addr)
    return distinct

