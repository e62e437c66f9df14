"""Property-based equivalence tests for grid-axis execution.

Two families of properties pin the grid path to the per-spec batched
path byte for byte:

* **Partition invariance** — any random partition of a spec grid into
  execution batches, with shuffled group order and single-spec
  batches, produces exactly the per-spec statistics, and a one-config
  :class:`~repro.timing.grid.GridPipeline` matches every spec alone.
  This is the contract every backend relies on when it shards work:
  where the group boundaries land can never change a result.

* **Random-trace equivalence** — Hypothesis-generated programs (both
  free-form and block-repeated, the latter shaped like the unrolled
  loops of the paper's media kernels) simulate to the same statistics
  through :class:`~repro.timing.grid.GridPipeline` and the batched
  pipeline across a config group.  Their SIMD ops may write two vector
  registers, which the grid's rename gates replay symbolically; at a
  rename capacity small enough to bind, that replay is pinned to the
  reference oracle.

* **Shared replays** — a group replays its memory traffic once per
  cache geometry and derives every L2 latency from that replay; the
  pool and the random-trace group span several latencies so every
  property above covers the derivation.

Run under the fixed ``ci`` profile (registered in ``conftest.py``) in
CI: ``pytest --hypothesis-profile=ci``.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.keys import RunSpec
from repro.engine.parallel import (
    build_configs,
    build_workload,
    execute_spec,
    simulate_specs,
)
from repro.isa import ElemType, Opcode, ProgramBuilder, r, v
from repro.timing import grid, simulate
from repro.timing.grid import GridPipeline

#: L2 latencies every replayed group spans (the paper's 20 in between)
_LATENCIES = (5, 20, 200)
#: a 16 KiB L2: jpeg_decode's 148-line working set overflows it, so
#: warm runs evict and miss (the default 2 MiB L2 holds every trace)
_SMALL_L2 = (("l2_size", 16 * 1024),)

# -- partition invariance ----------------------------------------------------

#: Small spec pool: four trace groups, each spanning several L2
#: latencies — gsm_encode (the smallest trace) under mom, warm and
#: cold, and under mom3d (dvload3 line mode), and jpeg_decode under an
#: evicting L2 — plus ideal members and an ineligible reference-model
#: spec.
_POOL = [
    *[RunSpec(benchmark="gsm_encode", coding="mom", memsys=memsys,
              l2_latency=latency)
      for memsys in ("vector", "multibank") for latency in _LATENCIES],
    RunSpec(benchmark="gsm_encode", coding="mom", memsys="ideal"),
    *[RunSpec(benchmark="gsm_encode", coding="mom3d", memsys="vector",
              l2_latency=latency) for latency in _LATENCIES],
    RunSpec(benchmark="gsm_encode", coding="mom3d", memsys="ideal"),
    RunSpec(benchmark="gsm_encode", coding="mom", memsys="vector",
            warm=False),
    RunSpec(benchmark="gsm_encode", coding="mom", memsys="vector",
            l2_latency=200, warm=False),
    RunSpec(benchmark="gsm_encode", coding="mom", memsys="multibank",
            l2_latency=5, warm=False),
    RunSpec(benchmark="jpeg_decode", coding="mom", memsys="vector",
            l2_latency=5, overrides=_SMALL_L2),
    RunSpec(benchmark="jpeg_decode", coding="mom", memsys="vector",
            l2_latency=200, overrides=_SMALL_L2),
    RunSpec(benchmark="jpeg_decode", coding="mom", memsys="multibank",
            overrides=_SMALL_L2),
    RunSpec(benchmark="gsm_encode", coding="mom", memsys="vector",
            overrides=(("timing_model", "reference"),)),
]


@pytest.fixture(scope="module")
def pool_baseline():
    return {spec: execute_spec(spec).to_dict() for spec in _POOL}


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_random_partitions_bit_identical(pool_baseline, data):
    """Shuffled subsets, arbitrary batch boundaries."""
    subset = data.draw(st.lists(st.sampled_from(_POOL), min_size=1,
                                max_size=len(_POOL), unique=True))
    subset = data.draw(st.permutations(subset))
    # cut the sequence into 1..n consecutive batches
    cuts = data.draw(st.sets(st.integers(1, max(1, len(subset) - 1)),
                             max_size=len(subset) - 1)
                     if len(subset) > 1 else st.just(set()))
    bounds = [0, *sorted(cuts), len(subset)]
    results = {}
    for lo, hi in zip(bounds, bounds[1:]):
        if lo < hi:
            results.update(simulate_specs(list(subset[lo:hi])))
    for spec in subset:
        assert results[spec].to_dict() == pool_baseline[spec], \
            spec.label()


def test_single_spec_groups_match(pool_baseline):
    """N=1 degenerate groups: a one-config GridPipeline on each spec
    (the reference-model spec's baseline is the oracle itself)."""
    for spec in _POOL:
        program = build_workload(spec.benchmark, spec.coding,
                                 spec.seed).program
        [result] = GridPipeline(program, [build_configs(spec)]).run(
            warm=spec.warm)
        assert result.to_dict() == pool_baseline[spec], spec.label()


# -- random-trace equivalence ------------------------------------------------

#: two port designs x three L2 latencies x two L2 sizes, plus ideal:
#: four geometries, each replayed once for its three latencies
_CONFIG_GROUP = [
    build_configs(RunSpec(benchmark="gsm_encode", coding="mom",
                          memsys=memsys, l2_latency=latency,
                          overrides=overrides))
    for memsys in ("vector", "multibank") for latency in _LATENCIES
    for overrides in ((), _SMALL_L2)
] + [build_configs(RunSpec(benchmark="gsm_encode", coding="mom",
                           memsys="ideal"))]


@st.composite
def _blocks(draw, min_size=2, max_size=14):
    """One straight-line block mixing int, SIMD and memory ops."""
    ops = []
    count = draw(st.integers(min_size, max_size))
    for _ in range(count):
        kind = draw(st.sampled_from(
            ("int", "int", "simd", "simd2", "vld", "vst", "ld", "st")))
        ops.append((kind,
                    draw(st.integers(0, 7)), draw(st.integers(0, 7)),
                    draw(st.integers(0, 1 << 14)),
                    draw(st.sampled_from((8, 16, 64, 720)))))
    return ops


def _emit(builder, ops, base_ea=0):
    for kind, a, b, ea, stride in ops:
        if kind == "int":
            builder.addi(r(a), r(b), 1)
        elif kind in ("simd", "simd2"):
            builder.simd(Opcode.PADDW, v(a % 4), v(b % 4),
                         v((a + b) % 4), etype=ElemType.I16)
            if kind == "simd2":
                # a second destination (a decoded trace may carry any
                # count) takes a second rename admission
                insts = builder.program.instructions
                insts[-1] = dataclasses.replace(
                    insts[-1], dsts=(v(a % 4), v(4 + b % 4)))
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
    for warm in (True, False):
        results = GridPipeline(program, _CONFIG_GROUP).run(warm=warm)
        for (proc, memsys), stats in zip(_CONFIG_GROUP, results):
            batched = simulate(program, proc, memsys, warm=warm,
                               model="batched")
            assert stats.to_dict() == batched.to_dict(), \
                (warm, memsys, stats.diff(batched))


@given(ops=_blocks(min_size=4, max_size=24),
       vl=st.integers(1, 16))
@settings(max_examples=25, deadline=None)
def test_random_program_grid_identical(ops, vl):
    builder = ProgramBuilder("grid-prop")
    builder.setvl(vl)
    _emit(builder, ops)
    _assert_group_identical(builder.program)


@given(ops=_blocks(), repeats=st.integers(20, 60),
       moving=st.booleans(), vl=st.integers(1, 16))
@settings(max_examples=20, deadline=None)
def test_repeated_block_grid_identical(ops, repeats, moving, vl):
    """Unrolled-loop-shaped traces: a random block repeated 20-60
    times, the way the paper's media kernels unroll their loops, must
    still be bit-identical — with both stationary and moving
    (per-iteration shifted) buffer addresses."""
    builder = ProgramBuilder("grid-loop")
    builder.setvl(vl)
    for k in range(repeats):
        _emit(builder, ops, base_ea=k * 4096 if moving else 0)
    _assert_group_identical(builder.program)


@given(ops=_blocks(max_size=24), vl=st.integers(1, 16),
       cap=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_two_destination_renames_match_the_oracle(ops, vl, cap):
    """Two leading two-destination ops make four admissions, so a
    rename capacity of 1-3 binds: the grid's symbolic pop replay
    (``grid._simulate_pops``) runs and every member equals the oracle,
    warm and cold."""
    builder = ProgramBuilder("grid-renames")
    builder.setvl(vl)
    _emit(builder, [("simd2", 0, 1, 0, 8), ("simd2", 1, 2, 64, 8), *ops])
    program = builder.program
    configs = [build_configs(RunSpec(
        benchmark="gsm_encode", coding="mom", memsys=memsys,
        overrides=(("extra_vector_regs", cap),)))
        for memsys in ("vector", "multibank", "ideal")]
    with mock.patch.object(grid, "_simulate_pops",
                           wraps=grid._simulate_pops) as pops:
        results = {warm: GridPipeline(program, configs).run(warm=warm)
                   for warm in (True, False)}
    assert pops.called
    for warm, runs in results.items():
        for (proc, memsys), stats in zip(configs, runs):
            oracle = simulate(program, proc, memsys, warm=warm,
                              model="reference")
            assert stats.to_dict() == oracle.to_dict(), \
                (warm, memsys, stats.diff(oracle))


# -- shared replays ----------------------------------------------------------


def test_latency_sweep_replays_each_geometry_once(pool_baseline,
                                                  monkeypatch):
    """3 L2 latencies x 2 port designs: two replays, per-spec results."""
    specs = [spec for spec in _POOL
             if spec.coding == "mom" and spec.benchmark == "gsm_encode"
             and spec.warm and spec.memsys != "ideal"
             and not spec.overrides]
    assert len(specs) == 6
    replays = []
    original = grid._replay_traffic

    def counting(d, proc, memsys, warm, program):
        replays.append(memsys)
        return original(d, proc, memsys, warm, program)

    monkeypatch.setattr(grid, "_replay_traffic", counting)
    results = simulate_specs(specs)
    assert sorted(memsys.kind for memsys in replays) == [
        "multibank", "vector"]
    assert {memsys.hierarchy.l2_latency for memsys in replays} == {0}
    for spec in specs:
        assert results[spec].to_dict() == pool_baseline[spec], \
            spec.label()


def test_group_members_do_not_share_port_stats():
    """Members derived from one replay own their PortStats copies."""
    program = build_workload("gsm_encode", "mom", 0).program
    configs = [build_configs(RunSpec(benchmark="gsm_encode", coding="mom",
                                     memsys="vector", l2_latency=latency,
                                     warm=False))
               for latency in _LATENCIES]
    results = GridPipeline(program, configs).run(warm=False)
    ports = [stats.vector_port for stats in results] \
        + [stats.l1_port for stats in results]
    assert len({id(port) for port in ports}) == len(ports)
    assert results[1].vector_port.requests > 0
    before = results[1].to_dict()
    results[0].vector_port.requests += 1
    results[0].l1_port.misses += 1
    assert results[1].to_dict() == before


def test_negative_latencies_replay_on_their_own():
    """A negative L2 latency can clamp a read at its issue cycle, so it
    is not additive: such members replay at their own latency and
    still match the per-spec path."""
    program = build_workload("gsm_encode", "mom", 0).program
    for warm in (True, False):
        specs = [RunSpec(benchmark="gsm_encode", coding="mom",
                         memsys=memsys, l2_latency=latency, warm=warm)
                 for memsys in ("vector", "multibank")
                 for latency in (-30, -3, 7)]
        results = GridPipeline(
            program, [build_configs(spec) for spec in specs]).run(warm=warm)
        for spec, stats in zip(specs, results):
            assert stats.to_dict() == execute_spec(spec).to_dict(), \
                spec.label()
