"""Structural-resource bookkeeping for the timing pipeline.

The reference model claims through these pools one call at a time; the
batched scheduler inlines the same bookkeeping into its walk over the
pools' state (the two-integer :class:`PackedSlots` for in-order fetch
and retire, the limiters' exit deques, the units' free-at lists), and
the differential test suite holds the two formulations bit-identical.
"""

from __future__ import annotations

from collections import defaultdict, deque


class SlotPool:
    """Per-cycle slot counter (fetch, issue and retire widths).

    ``claim(earliest)`` returns the first cycle >= ``earliest`` with a
    free slot and consumes it.  Claims must be made with non-decreasing
    ``earliest`` only in the aggregate; the pool tolerates arbitrary
    order but keeps a scan floor for efficiency.
    """

    def __init__(self, width: int):
        self.width = width
        self._used: dict[int, int] = defaultdict(int)

    def claim(self, earliest: int) -> int:
        cycle = earliest
        while self._used[cycle] >= self.width:
            cycle += 1
        self._used[cycle] += 1
        return cycle


class PackedSlots:
    """Per-cycle slot counter for *monotone* claim streams.

    In-order fetch and retire claim with non-decreasing ``earliest``
    (each claim's floor covers the previous result), so the whole
    cycle-count dict of :class:`SlotPool` collapses to two integers:
    the current cycle and its consumed slots.  ``claim`` is exactly
    ``SlotPool.claim`` under that precondition.
    """

    __slots__ = ("width", "cycle", "used")

    def __init__(self, width: int):
        self.width = width
        self.cycle = -1
        self.used = 0

    def claim(self, earliest: int) -> int:
        if earliest > self.cycle:
            self.cycle = earliest
            self.used = 1
            return earliest
        if self.used < self.width:
            self.used += 1
        else:
            self.cycle += 1
            self.used = 1
        return self.cycle


class FuPool:
    """A pool of identical functional units with occupancy.

    A vector instruction occupies one unit for several cycles (VL /
    lanes for the MOM SIMD unit), which is how a single 4-lane unit
    matches four 1-word units in aggregate throughput.
    """

    def __init__(self, count: int):
        self._free_at = [0] * count

    def claim(self, ready: int, occupancy: int = 1) -> int:
        index = min(range(len(self._free_at)), key=self._free_at.__getitem__)
        start = max(ready, self._free_at[index])
        self._free_at[index] = start + occupancy
        return start


class InFlightLimiter:
    """Caps simultaneously in-flight items (window, LSQ, rename regs).

    Items enter with an unknown exit cycle and are recorded on exit (in
    program order, which holds for an in-order-retire window).  When
    full, the earliest recorded exit bounds the next entry.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._exits: deque[int] = deque()

    def admit(self, earliest: int) -> int:
        """Earliest cycle a new item may enter; call once per item."""
        if len(self._exits) >= self.capacity:
            gate = self._exits.popleft()
            return max(earliest, gate)
        return earliest

    def record_exit(self, cycle: int) -> None:
        self._exits.append(cycle)
