"""Property-based equivalence tests for grid-axis execution.

Two families of properties pin the grid path to the per-spec batched
path byte for byte:

* **Partition invariance** — any random partition of a spec grid into
  execution batches, under any grid mode, with shuffled group order
  and degenerate single-spec groups, produces exactly the per-spec
  statistics.  This is the contract every backend relies on when it
  shards work: where the group boundaries land can never change a
  result.

* **Random-trace equivalence** — Hypothesis-generated programs (both
  free-form and block-repeated, the latter specifically to engage the
  steady-state fast-forward on non-handwritten code) simulate to the
  same statistics through :class:`~repro.timing.grid.GridPipeline`
  and the batched pipeline across a config group.

Run under the fixed ``ci`` profile (registered in ``conftest.py``) in
CI: ``pytest --hypothesis-profile=ci``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.keys import RunSpec
from repro.engine.parallel import (
    GRID_MODES,
    build_configs,
    execute_spec,
    simulate_specs,
)
from repro.isa import ElemType, Opcode, ProgramBuilder, r, v
from repro.timing import simulate
from repro.timing.grid import GridPipeline

# -- partition invariance ----------------------------------------------------

#: Small spec pool: two trace groups (gsm is the smallest trace) plus
#: latency variants and an ineligible reference-model spec.
_POOL = [
    RunSpec(benchmark="gsm_encode", coding="mom", memsys="vector"),
    RunSpec(benchmark="gsm_encode", coding="mom", memsys="multibank"),
    RunSpec(benchmark="gsm_encode", coding="mom", memsys="ideal"),
    RunSpec(benchmark="gsm_encode", coding="mom", memsys="vector",
            l2_latency=40),
    RunSpec(benchmark="gsm_encode", coding="mom3d", memsys="vector"),
    RunSpec(benchmark="gsm_encode", coding="mom3d", memsys="ideal"),
    RunSpec(benchmark="gsm_encode", coding="mom", memsys="vector",
            warm=False),
    RunSpec(benchmark="gsm_encode", coding="mom", memsys="vector",
            overrides=(("timing_model", "reference"),)),
]


@pytest.fixture(scope="module")
def pool_baseline():
    return {spec: execute_spec(spec).to_dict() for spec in _POOL}


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_random_partitions_bit_identical(pool_baseline, data):
    """Shuffled subsets, arbitrary batch boundaries, any grid mode."""
    subset = data.draw(st.lists(st.sampled_from(_POOL), min_size=1,
                                max_size=len(_POOL), unique=True))
    subset = data.draw(st.permutations(subset))
    mode = data.draw(st.sampled_from(GRID_MODES))
    # cut the sequence into 1..n consecutive batches
    cuts = data.draw(st.sets(st.integers(1, max(1, len(subset) - 1)),
                             max_size=len(subset) - 1)
                     if len(subset) > 1 else st.just(set()))
    bounds = [0, *sorted(cuts), len(subset)]
    results = {}
    for lo, hi in zip(bounds, bounds[1:]):
        if lo < hi:
            results.update(simulate_specs(list(subset[lo:hi]),
                                          grid_mode=mode))
    for spec in subset:
        assert results[spec].to_dict() == pool_baseline[spec], (
            mode, spec.label())


def test_single_spec_groups_match(pool_baseline):
    """N=1 degenerate groups under every mode."""
    for mode in GRID_MODES:
        for spec in _POOL:
            result = simulate_specs([spec], grid_mode=mode)[spec]
            assert result.to_dict() == pool_baseline[spec], (
                mode, spec.label())


# -- random-trace equivalence ------------------------------------------------

_CONFIG_GROUP = [
    build_configs(RunSpec(benchmark="gsm_encode", coding="mom",
                          memsys=memsys))
    for memsys in ("vector", "multibank", "ideal")
]


@st.composite
def _blocks(draw, min_size=2, max_size=14):
    """One straight-line block mixing int, SIMD and memory ops."""
    ops = []
    count = draw(st.integers(min_size, max_size))
    for _ in range(count):
        kind = draw(st.sampled_from(
            ("int", "int", "simd", "vld", "vst", "ld", "st")))
        ops.append((kind,
                    draw(st.integers(0, 7)), draw(st.integers(0, 7)),
                    draw(st.integers(0, 1 << 14)),
                    draw(st.sampled_from((8, 16, 64, 720)))))
    return ops


def _emit(builder, ops, base_ea=0):
    for kind, a, b, ea, stride in ops:
        if kind == "int":
            builder.addi(r(a), r(b), 1)
        elif kind == "simd":
            builder.simd(Opcode.PADDW, v(a % 4), v(b % 4),
                         v((a + b) % 4), etype=ElemType.I16)
        elif kind == "vld":
            builder.vld(v(a % 4), ea=base_ea + ea, stride=stride,
                        etype=ElemType.I16)
        elif kind == "vst":
            builder.vst(v(a % 4), ea=base_ea + ea, stride=stride,
                        etype=ElemType.I16)
        elif kind == "ld":
            builder.ld(r(a), ea=base_ea + ea)
        else:
            builder.st(r(a), ea=base_ea + ea)


def _assert_group_identical(program):
    grid = GridPipeline(program, _CONFIG_GROUP).run(warm=True)
    for (proc, memsys), stats in zip(_CONFIG_GROUP, grid):
        batched = simulate(program, proc, memsys, warm=True,
                           model="batched")
        assert stats.to_dict() == batched.to_dict(), \
            stats.diff(batched)


@given(ops=_blocks(min_size=4, max_size=24),
       vl=st.integers(1, 16))
@settings(max_examples=25, deadline=None)
def test_random_program_grid_identical(ops, vl):
    builder = ProgramBuilder("grid-prop")
    builder.setvl(vl)
    _emit(builder, ops)
    _assert_group_identical(builder.program)


def test_skip_anchors_sharing_a_row_are_whole_periods_apart():
    """The fast-forward finds loop periodicity online: on an unrolled
    48-trip loop, skip anchors that share a decoded row sit a whole
    number of loop bodies apart."""
    from collections import defaultdict

    from repro.timing import gridskip, predecode

    ops = [("vld", 0, 1, 0, 8), ("int", 1, 2, 0, 8),
           ("simd", 0, 1, 0, 8), ("st", 1, 0, 8, 8),
           ("int", 2, 1, 0, 8), ("vst", 2, 0, 16, 8)]
    builder = ProgramBuilder("grid-anchors")
    builder.setvl(4)
    for _ in range(48):
        _emit(builder, ops)
    program = builder.program
    core = predecode._decode_core(program)
    rowid, _memord, _ptrord, _anchors, positions, _pdg = \
        gridskip._skip_core(program, core)
    assert positions, "a 48-trip loop must yield skip anchors"
    by_row = defaultdict(list)
    for pos in positions:
        by_row[int(rowid[pos])].append(pos)
    for group in by_row.values():
        for a, b in zip(group, group[1:]):
            assert (b - a) % len(ops) == 0, (a, b, len(ops))


@given(ops=_blocks(), repeats=st.integers(20, 60),
       moving=st.booleans(), vl=st.integers(1, 16))
@settings(max_examples=20, deadline=None)
def test_repeated_block_grid_identical(ops, repeats, moving, vl):
    """Unrolled-loop-shaped traces: repeating a random block long
    enough to cross the skip engine's anchor and window thresholds
    must still be bit-identical — with both stationary and moving
    (per-iteration shifted) buffer addresses."""
    builder = ProgramBuilder("grid-loop")
    builder.setvl(vl)
    for k in range(repeats):
        _emit(builder, ops, base_ea=k * 4096 if moving else 0)
    _assert_group_identical(builder.program)
