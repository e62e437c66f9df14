"""Set-associative cache with LRU replacement.

Used functionally (hit/miss decisions and content tracking) by the
timing model; latencies are applied by the ports in
:mod:`repro.memsys`, not here.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass
class CacheStats:
    """Access counters for one cache array."""

    reads: int = 0
    writes: int = 0
    read_misses: int = 0
    write_misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 1.0


@dataclass(slots=True)
class _Line:
    dirty: bool = False
    #: Exclusive-bit coherence: True while the scalar side (L1) owns it.
    scalar_owned: bool = False


class SetAssocCache:
    """An LRU set-associative cache keyed by line address.

    Parameters mirror the paper's Sec. 5.3 configuration (e.g. L2:
    2 MB, 4-way, 128-byte lines, write-back).
    """

    def __init__(self, size_bytes: int, line_bytes: int, ways: int,
                 write_back: bool = True, name: str = "cache"):
        if size_bytes % (line_bytes * ways) != 0:
            raise ConfigError(
                f"{name}: size {size_bytes} not divisible by "
                f"line*ways = {line_bytes * ways}")
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.write_back = write_back
        self.name = name
        self.n_sets = size_bytes // (line_bytes * ways)
        # one LRU-ordered dict per set: {tag: _Line}; last item = MRU.
        # Allocated lazily on first touch: a 2 MB L2 has 4096 sets, and
        # eagerly building that many OrderedDicts dominated pipeline
        # construction for short traces that touch a few dozen sets.
        self._sets: defaultdict[int, OrderedDict[int, _Line]] = \
            defaultdict(OrderedDict)
        self.stats = CacheStats()

    # -- address helpers ------------------------------------------------------

    def line_addr(self, addr: int) -> int:
        """Address of the line containing ``addr``."""
        return addr - addr % self.line_bytes

    def _locate(self, addr: int) -> tuple[OrderedDict, int]:
        line_no = addr // self.line_bytes
        return self._sets[line_no % self.n_sets], line_no // self.n_sets

    def _peek(self, addr: int) -> tuple[OrderedDict | None, int]:
        """Like :meth:`_locate` but never materializes a lazy set —
        for the read-only operations below, so a probe of a cold set
        stays side-effect free."""
        line_no = addr // self.line_bytes
        return (self._sets.get(line_no % self.n_sets),
                line_no // self.n_sets)

    # -- operations ---------------------------------------------------------------

    def probe(self, addr: int) -> bool:
        """True if the line holding ``addr`` is present (no side effects)."""
        cset, tag = self._peek(addr)
        return cset is not None and tag in cset

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Reference the line holding ``addr``.  Returns True on hit.

        On a miss the line is allocated, evicting LRU if the set is
        full (write-allocate for both reads and writes).
        """
        cset, tag = self._locate(addr)
        hit = tag in cset
        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        if hit:
            cset.move_to_end(tag)
            if is_write and self.write_back:
                cset[tag].dirty = True
            return True
        if is_write:
            self.stats.write_misses += 1
        else:
            self.stats.read_misses += 1
        if len(cset) >= self.ways:
            _victim_tag, victim = cset.popitem(last=False)
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.writebacks += 1
        cset[tag] = _Line(dirty=is_write and self.write_back)
        return False

    def vector_access(self, addr: int,
                      is_write: bool = False) -> tuple[bool, bool]:
        """Fused exclusive-bit probe + :meth:`access` for the vector path.

        Returns ``(hit, handoff)`` where ``handoff`` is True when the
        line was scalar-owned (the bit is cleared here; the caller
        settles the L1 invalidation and penalty).  One set lookup
        instead of the three a probe/clear/access sequence costs — the
        vector ports sit on this for every L2 line they touch.

        NOTE: the vector ports additionally inline this method's
        present-and-not-scalar-owned hit case in their scheduling
        loops (``vectorcache._schedule``/``_schedule_line_mode``,
        ``multibank._schedule``) with deferred stats flushes; any
        semantic change here must be mirrored there.  The equivalence
        is pinned by ``test_planned_schedule_equals_unplanned`` and
        the timing differential suite.
        """
        cset, tag = self._locate(addr)
        entry = cset.get(tag)
        handoff = False
        stats = self.stats
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        if entry is not None:
            if entry.scalar_owned:
                entry.scalar_owned = False
                handoff = True
            cset.move_to_end(tag)
            if is_write and self.write_back:
                entry.dirty = True
            return True, handoff
        if is_write:
            stats.write_misses += 1
        else:
            stats.read_misses += 1
        if len(cset) >= self.ways:
            _victim_tag, victim = cset.popitem(last=False)
            stats.evictions += 1
            if victim.dirty:
                stats.writebacks += 1
        cset[tag] = _Line(dirty=is_write and self.write_back)
        return False, handoff

    def invalidate(self, addr: int) -> bool:
        """Drop the line holding ``addr``; returns True if it was present."""
        cset, tag = self._peek(addr)
        if cset is not None and tag in cset:
            del cset[tag]
            self.stats.invalidations += 1
            return True
        return False

    def set_scalar_owned(self, addr: int, owned: bool) -> None:
        """Flip the exclusive bit on a (present) line."""
        cset, tag = self._peek(addr)
        if cset is not None and tag in cset:
            cset[tag].scalar_owned = owned

    def is_scalar_owned(self, addr: int) -> bool:
        cset, tag = self._peek(addr)
        return cset is not None and tag in cset \
            and cset[tag].scalar_owned

    def lines_touched(self, addr: int, nbytes: int) -> list[int]:
        """Line addresses overlapped by [addr, addr+nbytes)."""
        first = self.line_addr(addr)
        last = self.line_addr(addr + nbytes - 1)
        return list(range(first, last + 1, self.line_bytes))
