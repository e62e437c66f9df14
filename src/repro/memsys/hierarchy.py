"""The two-level on-chip cache hierarchy with scalar/vector coherence.

Following the paper (Sec. 5.3, after [16, 22]):

* L1: 64 KB, 2-way, write-through, 32-byte lines, 1-cycle — used by
  scalar code and by the MMX-style configuration's media accesses.
* L2: 2 MB, 4-way, write-back, 128-byte lines, 20-cycle — MOM vector
  memory accesses bypass the L1 and go straight to the L2.
* Coherence between the two paths uses a simple exclusive-bit policy:
  a line referenced by the scalar side is marked scalar-owned in the
  L2; a vector access to a scalar-owned line first invalidates it from
  the L1 (one coherence event + a small penalty), and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, require_positive
from repro.memsys.cache import SetAssocCache
from repro.memsys.mainmem import MainMemory


@dataclass
class HierarchyConfig:
    """Geometry and latency of the cache hierarchy (paper Sec. 5.3).

    Sizes, ways and lines must be at least 1, and each cache's size a
    multiple of line x ways.  Latencies are not range-checked: a
    negative L2 latency is a what-if the timing models accept (the
    grid path replays it on its own instead of deriving it).
    """

    l1_size: int = 64 * 1024
    l1_ways: int = 2
    l1_line: int = 32
    l1_latency: int = 1
    l2_size: int = 2 * 1024 * 1024
    l2_ways: int = 4
    l2_line: int = 128
    l2_latency: int = 20
    mem_latency: int = 100
    coherence_penalty: int = 2

    def __post_init__(self) -> None:
        require_positive(self, ("l1_size", "l1_ways", "l1_line",
                                "l2_size", "l2_ways", "l2_line"))
        for level in ("l1", "l2"):
            size = getattr(self, f"{level}_size")
            block = getattr(self, f"{level}_line") * \
                getattr(self, f"{level}_ways")
            if size % block:
                raise ConfigError(
                    f"{level}_size {size} is not a multiple of "
                    f"{level}_line x {level}_ways = {block}")


class CacheHierarchy:
    """L1 + L2 + main memory, plus the exclusive-bit coherence state."""

    def __init__(self, config: HierarchyConfig | None = None):
        self.config = config if config is not None else HierarchyConfig()
        cfg = self.config
        self.l1 = SetAssocCache(cfg.l1_size, cfg.l1_line, cfg.l1_ways,
                                write_back=False, name="L1")
        self.l2 = SetAssocCache(cfg.l2_size, cfg.l2_line, cfg.l2_ways,
                                write_back=True, name="L2")
        self.mainmem = MainMemory(cfg.mem_latency)
        self.coherence_events = 0

    # -- scalar path (through L1) ------------------------------------------------

    def scalar_access(self, addr: int, is_write: bool = False) -> int:
        """One scalar (or MMX media) reference.  Returns its latency.

        Write-through L1: stores update the L2 as well.  L1 misses
        allocate in both levels; L2 misses pay main-memory latency.
        """
        cfg = self.config
        latency = cfg.l1_latency
        l1_hit = self.l1.access(addr, is_write)
        if is_write:
            # write-through: the L2 sees every store
            l2_hit = self.l2.access(addr, is_write=True)
            if not l2_hit:
                latency += cfg.l2_latency + self.mainmem.fetch_line()
            self._claim_for_scalar(addr)
            return latency
        if l1_hit:
            return latency
        latency += cfg.l2_latency
        if not self.l2.access(addr, is_write=False):
            latency += self.mainmem.fetch_line()
        self._claim_for_scalar(addr)
        return latency

    # -- vector path (straight to L2) -----------------------------------------------

    def vector_line_access(self, addr: int, is_write: bool = False
                           ) -> tuple[bool, int]:
        """One vector-side L2 line reference.

        Returns ``(hit, extra_latency)`` where ``extra_latency`` covers
        a main-memory fill on miss and any coherence penalty (the base
        L2 latency is applied by the port, once per access).
        """
        hit, handoff = self.l2.vector_access(addr, is_write)
        extra = 0
        if handoff:
            # exclusive-bit handoff: purge the line from the L1
            self.l1.invalidate(addr)
            self.coherence_events += 1
            extra += self.config.coherence_penalty
        if not hit:
            extra += self.mainmem.fetch_line()
        return hit, extra

    def _claim_for_scalar(self, addr: int) -> None:
        line = self.l2.line_addr(addr)
        if self.l2.probe(line) and not self.l2.is_scalar_owned(line):
            self.l2.set_scalar_owned(line, True)
