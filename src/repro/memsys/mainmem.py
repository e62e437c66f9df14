"""Main-memory model: fixed latency, access counting."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class MainMemory:
    """DRAM behind the L2: a flat latency plus traffic counters.

    The paper never stresses main-memory bandwidth (L2 hit rates are
    90-99%), so a fixed-latency model with unbounded bandwidth is
    sufficient; the latency still matters for the few misses.
    """

    latency: int = 100
    line_fetches: int = 0

    def fetch_line(self) -> int:
        """Record a line fill from memory; returns its latency."""
        self.line_fetches += 1
        return self.latency
