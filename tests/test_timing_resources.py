"""Unit + property tests for the pipeline's structural resources."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timing.resources import (
    FuPool,
    InFlightLimiter,
    PackedSlots,
    SlotPool,
)


# --- SlotPool ----------------------------------------------------------------


def test_slotpool_width_one_serializes():
    pool = SlotPool(1)
    assert [pool.claim(0) for _ in range(4)] == [0, 1, 2, 3]


def test_slotpool_width_n_packs():
    pool = SlotPool(3)
    cycles = [pool.claim(0) for _ in range(7)]
    assert cycles == [0, 0, 0, 1, 1, 1, 2]


def test_slotpool_respects_earliest():
    pool = SlotPool(2)
    assert pool.claim(10) == 10
    assert pool.claim(5) == 5  # earlier cycle still has slots


@given(st.lists(st.integers(0, 50), min_size=1, max_size=100),
       st.integers(1, 8))
@settings(max_examples=40)
def test_slotpool_never_exceeds_width(earliest_list, width):
    pool = SlotPool(width)
    claims = [pool.claim(e) for e in earliest_list]
    for cycle in set(claims):
        assert claims.count(cycle) <= width
    for earliest, cycle in zip(earliest_list, claims):
        assert cycle >= earliest


# --- PackedSlots ------------------------------------------------------------


@given(st.lists(st.integers(0, 6), min_size=1, max_size=80),
       st.integers(1, 8))
@settings(max_examples=60)
def test_packed_slots_claim_matches_slotpool_on_monotone_streams(
        deltas, width):
    """For non-decreasing earliest floors (fetch/retire pattern), the
    two-integer pool is claim-for-claim identical to the dict pool."""
    packed, pool = PackedSlots(width), SlotPool(width)
    earliest = 0
    for delta in deltas:
        assert packed.claim(earliest) == pool.claim(earliest)
        earliest = max(earliest + delta - 3, packed.cycle)


# --- FuPool -----------------------------------------------------------------


def test_fupool_parallel_units():
    pool = FuPool(2)
    assert pool.claim(0, occupancy=4) == 0
    assert pool.claim(0, occupancy=4) == 0  # second unit
    assert pool.claim(0, occupancy=4) == 4  # first unit free again


def test_fupool_occupancy_blocks():
    pool = FuPool(1)
    assert pool.claim(0, occupancy=3) == 0
    assert pool.claim(1, occupancy=1) == 3


@given(st.lists(st.tuples(st.integers(0, 20), st.integers(1, 4)),
                min_size=1, max_size=60), st.integers(1, 4))
@settings(max_examples=40)
def test_fupool_no_overlap_per_unit(requests, units):
    pool = FuPool(units)
    total_busy = 0
    last = 0
    for ready, occ in requests:
        start = pool.claim(ready, occ)
        assert start >= ready
        total_busy += occ
        last = max(last, start + occ)
    # conservation: units cannot do more work than cycles x units
    assert total_busy <= last * units


# --- InFlightLimiter ------------------------------------------------------------


def test_limiter_admits_up_to_capacity():
    limiter = InFlightLimiter(2)
    assert limiter.admit(0) == 0
    limiter.record_exit(10)
    assert limiter.admit(0) == 0
    limiter.record_exit(20)
    # third item must wait for the first exit
    assert limiter.admit(0) == 10
    limiter.record_exit(30)
    assert limiter.admit(0) == 20


def test_limiter_large_capacity_never_blocks():
    limiter = InFlightLimiter(1000)
    for i in range(100):
        assert limiter.admit(i) == i
        limiter.record_exit(i + 5)


@given(st.lists(st.integers(0, 5), min_size=1, max_size=80),
       st.integers(1, 6))
@settings(max_examples=40)
def test_limiter_monotone_exits_bound_entries(deltas, capacity):
    """With monotone exits, entry k waits for exit k-capacity."""
    limiter = InFlightLimiter(capacity)
    exits = []
    clock = 0
    for delta in deltas:
        entry = limiter.admit(clock)
        if len(exits) >= capacity:
            assert entry >= exits[len(exits) - capacity]
        clock = max(clock, entry)
        exit_cycle = clock + 1 + delta
        exits.append(exit_cycle)
        limiter.record_exit(exit_cycle)
        clock += 1
