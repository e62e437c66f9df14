"""Harness tests: runner caching and the qualitative shape of every
reproduced table/figure (the paper's orderings must hold)."""

import pytest

from repro.errors import ConfigError
from repro.harness import EXPERIMENTS, Runner, run_all, run_workload
from repro.harness.experiments import (
    fig3,
    fig6,
    fig7,
    fig9,
    fig10,
    fig11,
    table1,
    table3,
    table4,
)
from repro.workloads import benchmark_names


@pytest.fixture(scope="module")
def runner():
    runner = Runner(seed=0)
    yield runner
    runner.engine.close()


def test_runner_memoizes(runner):
    first = runner.run("gsm_encode", "mom", "vector")
    second = runner.run("gsm_encode", "mom", "vector")
    assert first is second


def test_runner_rejects_unknowns(runner):
    with pytest.raises(ConfigError):
        runner.run("gsm_encode", "avx512", "vector")
    with pytest.raises(ConfigError):
        runner.run("gsm_encode", "mom", "dram-only")


def test_run_workload_convenience():
    stats = run_workload("gsm_encode", isa="mom", memsys="vector")
    assert stats.cycles > 0


def test_fig3_realistic_always_slower_than_ideal(runner):
    result = fig3(runner)
    for column in ("multibank", "vector-cache"):
        for value in result.table.column(column):
            assert value >= 0.99


def test_fig3_mpeg2_encode_worst(runner):
    """Paper: mpeg2_encode suffers most from realistic memory."""
    result = fig3(runner)
    vc = result.table.column("vector-cache")
    assert result.table.cell("mpeg2_encode", "vector-cache") == max(vc)


def test_fig6_3d_raises_effective_bandwidth(runner):
    result = fig6(runner)
    for bench in ("mpeg2_encode", "gsm_encode", "jpeg_encode"):
        assert result.table.cell(bench, "vc+3D") > \
            result.table.cell(bench, "vector-cache")


def test_fig6_3d_beats_multibank_where_it_matters(runner):
    """Paper: with 3D the cheap vector cache beats the multi-banked
    design for the bandwidth-starved benchmarks."""
    result = fig6(runner)
    assert result.table.cell("mpeg2_encode", "vc+3D") > \
        result.table.cell("mpeg2_encode", "multibank")
    assert result.table.cell("gsm_encode", "vc+3D") > \
        result.table.cell("gsm_encode", "multibank")


def test_fig7_traffic_reduction_shape(runner):
    result = fig7(runner)
    # jpeg_decode: no 3D instructions -> zero reduction
    assert result.table.cell("jpeg_decode", "reduction %") == 0
    # overlap-heavy benchmarks see large reductions
    assert result.table.cell("gsm_encode", "reduction %") > 40
    assert result.table.cell("mpeg2_encode", "reduction %") > 30


def test_table1_dimensions(runner):
    result = table1(runner)
    # gsm: 4 x i16 lanes, 40-sample subframes -> VL 10 (paper: 4.0/10.0)
    assert result.table.cell("gsm_encode", "3d 1st") == pytest.approx(4.0)
    assert result.table.cell("gsm_encode", "3d 2nd") == pytest.approx(10.0)
    # every 3D-enabled benchmark has a positive 3rd dimension
    for bench in ("mpeg2_encode", "mpeg2_decode", "jpeg_encode",
                  "gsm_encode"):
        assert result.table.cell(bench, "3d 3rd") > 1.0
    assert result.table.cell("jpeg_decode", "3d 3rd") == 0.0


def test_table3_all_exact(runner):
    result = table3(runner)
    assert all(match == "exact" for match in result.table.column("match"))


def test_table4_activity_ordering(runner):
    """Paper Table 4 ordering: multibank >= vector >= vector+3D."""
    result = table4(runner)
    for bench in benchmark_names():
        mb = result.table.cell(bench, "multibank")
        vc = result.table.cell(bench, "vector")
        d3 = result.table.cell(bench, "vc+3D")
        assert mb >= vc >= d3, bench


def test_fig9_key_orderings(runner):
    result = fig9(runner)
    for bench in benchmark_names():
        vc = result.table.cell(bench, "mom-vc")
        v3 = result.table.cell(bench, "mom3d-vc")
        mmx = result.table.cell(bench, "mmx-ideal")
        # 3D never hurts, and MMX is issue-limited above MOM ideal
        assert v3 <= vc + 0.01, bench
        assert mmx > 1.2, bench
    # the paper's headline case: huge mpeg2_encode improvement
    gain = (result.table.cell("mpeg2_encode", "mom-vc")
            / result.table.cell("mpeg2_encode", "mom3d-vc"))
    assert gain > 1.15


def test_fig10_latency_robustness(runner):
    result = fig10(runner)
    rows = {(row[0], row[1]): row[2:] for row in result.table.rows}
    for bench in ("mpeg2_encode", "gsm_encode", "jpeg_encode",
                  "mpeg2_decode"):
        mom = rows[(bench, "mom")]
        m3d = rows[(bench, "mom3d")]
        # normalized to the 20-cycle run of the same coding
        assert mom[0] == pytest.approx(1.0)
        # latency degrades MOM at least as much as MOM+3D
        assert m3d[2] <= mom[2] + 0.02, bench


def test_fig11_power_orderings(runner):
    result = fig11(runner)
    for bench in benchmark_names():
        mb = result.table.cell(bench, "multibank W")
        d3 = result.table.cell(bench, "vc+3D W")
        rf = result.table.cell(bench, "3D RF share W")
        assert d3 <= mb, bench
        assert rf < 0.5, bench  # 3D RF power negligible


def test_all_experiments_render(runner):
    for exp_id, func in EXPERIMENTS.items():
        text = func(runner).render()
        assert exp_id in text
        assert len(text.splitlines()) >= 4


def test_run_all_resolves_the_evaluation_in_one_dispatch():
    """``run_all`` prefetches every experiment's sweeps as one union, so
    the experiments themselves only read the memo.  At the default
    width that one dispatch pools its 15 traces from two usable
    cores."""
    from repro.engine.backends import usable_cores

    runner = Runner(seed=0, backend="inline", use_cache=False)
    results = run_all(runner)
    assert [result.exp_id for result in results] == list(EXPERIMENTS)
    assert runner.engine.backend.counters() == {
        "dispatches": 1, "executed": 46,
        "pool_shards": 15 if usable_cores() > 1 else 0}
    stats = runner.engine.stats
    assert (stats.dispatches, stats.simulations) == (1, 46)
    # one grid group per trace; only jpeg_decode/mom3d has one spec
    assert (stats.grid_groups, stats.grid_fallbacks) == (14, 1)
