"""Differential oracle: batched pipeline == reference pipeline,
grid pipeline == batched pipeline.

The batched timing model re-derives the reference model's schedule
through pre-decoded rows, pre-planned memory requests and inlined
resource bookkeeping; nothing of that restructuring may move a single
statistic.
This suite runs both models over every (benchmark, coding, memsys,
l2_latency) point of the paper's fig3 / fig9 / table1 grids and asserts
``RunStats.to_dict()`` equality field by field.

The grid-axis pipeline (:mod:`repro.timing.grid`) re-derives the same
schedule a third way — shared trace decode, timing-decoupled traffic
replay (one per cache geometry, instantiated per L2 latency) and a
lean walk over precomputed limiter gates — and is pinned here to the
per-spec batched path for every paper grid point, warm and cold,
under grid-mode ``on``, ``off`` and ``auto`` across all three
execution backends.
"""

import threading

import pytest

from repro.engine import Engine, RemoteBackend
from repro.engine.keys import RunSpec
from repro.engine.parallel import (
    build_configs,
    build_workload,
    execute_spec,
)
from repro.harness.experiments import paper_grids
from repro.service import ServiceWorker, background_server
from repro.timing import simulate
from repro.timing.grid import GridPipeline
from repro.workloads import benchmark_names

#: (coding, memory systems) per evaluation grid:
#: fig3 — mom x {multibank, vector, ideal};
#: fig9 — adds mmx x {multibank, ideal} and mom3d x vector;
#: table1 — {mom, mom3d} x vector (subsumed by the two above).
_GRID_CODINGS = (
    ("mom", ("multibank", "vector", "ideal")),
    ("mmx", ("multibank", "ideal")),
    ("mom3d", ("vector",)),
)


def grid_points():
    points = []
    for bench in benchmark_names():
        for coding, memsystems in _GRID_CODINGS:
            for memsys in memsystems:
                points.append((bench, coding, memsys, 20))
    return points


def _run_both(bench, coding, memsys, l2_latency, warm=True):
    spec = RunSpec(benchmark=bench, coding=coding, memsys=memsys,
                   l2_latency=l2_latency)
    proc, memsys_config = build_configs(spec)
    program = build_workload(bench, coding, 0).program
    reference = simulate(program, proc, memsys_config, warm=warm,
                         model="reference")
    batched = simulate(program, proc, memsys_config, warm=warm,
                       model="batched")
    return reference, batched


@pytest.mark.parametrize("bench,coding,memsys,l2_latency", grid_points())
def test_batched_bit_identical_on_paper_grid(bench, coding, memsys,
                                             l2_latency):
    reference, batched = _run_both(bench, coding, memsys, l2_latency)
    ref_dict = reference.to_dict()
    bat_dict = batched.to_dict()
    for field, ref_value in ref_dict.items():
        assert bat_dict[field] == ref_value, (
            f"{field} diverged on {bench}/{coding}/{memsys}: "
            f"{batched.diff(reference)}")
    assert bat_dict == ref_dict


@pytest.mark.parametrize("bench", benchmark_names())
def test_batched_bit_identical_cold(bench):
    """Cold runs skip priming — the compulsory-miss path must agree too."""
    reference, batched = _run_both(bench, "mom", "vector", 20, warm=False)
    assert batched.to_dict() == reference.to_dict(), \
        batched.diff(reference)


def test_decode_memo_invalidated_when_program_grows():
    """Appending to a program after a run must not serve stale decode
    state: both models see the grown trace."""
    from repro.isa import ProgramBuilder, r
    from repro.timing import ideal_memsys, mom_processor

    builder = ProgramBuilder("grow")
    for i in range(20):
        builder.li(r(i % 8), i)
    program = builder.program
    first = simulate(program, mom_processor(), ideal_memsys())
    assert first.instructions == 20
    for i in range(20):
        builder.li(r(i % 8), i)
    grown_batched = simulate(program, mom_processor(), ideal_memsys())
    grown_reference = simulate(program, mom_processor(), ideal_memsys(),
                               model="reference")
    assert grown_batched.instructions == 40
    assert grown_batched.to_dict() == grown_reference.to_dict()


def test_engine_timing_model_override(tmp_path):
    """The engine runs the reference model via the RunSpec override and
    produces equal statistics under a distinct cache key."""
    engine = Engine(jobs=1, cache_dir=tmp_path)
    spec_batched = engine.spec("gsm_encode", "mom", "vector")
    spec_reference = engine.spec(
        "gsm_encode", "mom", "vector",
        overrides=(("timing_model", "reference"),))
    assert spec_batched.digest() != spec_reference.digest()
    batched = engine.run(spec_batched)
    reference = engine.run(spec_reference)
    assert batched.to_dict() == reference.to_dict()
    assert engine.stats.simulations == 2


def test_latency_sweep_point_bit_identical():
    """A non-default L2 latency (the fig10 axis) agrees as well."""
    reference, batched = _run_both("mpeg2_encode", "mom3d", "vector", 40)
    assert batched.to_dict() == reference.to_dict(), \
        batched.diff(reference)


# -- grid-axis pipeline ------------------------------------------------------

#: (coding, memsystems) trace groups of the paper grids — each is one
#: GridPipeline pass in grid mode.
_GRID_GROUPS = [(bench, coding, memsystems)
                for bench in benchmark_names()
                for coding, memsystems in _GRID_CODINGS]


@pytest.mark.parametrize("bench,coding,memsystems", _GRID_GROUPS)
@pytest.mark.parametrize("warm", (True, False), ids=("warm", "cold"))
def test_grid_pipeline_bit_identical(bench, coding, memsystems, warm):
    """One GridPipeline pass over a trace group == per-spec batched
    runs, for every paper grid point, warm and cold."""
    program = build_workload(bench, coding, 0).program
    configs = [build_configs(RunSpec(benchmark=bench, coding=coding,
                                     memsys=memsys))
               for memsys in memsystems]
    grid = GridPipeline(program, configs).run(warm=warm)
    for (proc, memsys_config), stats, memsys in zip(configs, grid,
                                                    memsystems):
        batched = simulate(program, proc, memsys_config, warm=warm,
                           model="batched")
        assert stats.to_dict() == batched.to_dict(), (
            f"{bench}/{coding}/{memsys} warm={warm}: "
            f"{stats.diff(batched)}")


def test_veclen_profile_is_copied_per_run():
    """The trace's vector-length profile is built once, in the core
    decode, and each run reports its own copy: equal to the oracle's
    through ``RunStats.to_dict()`` (open 3D slice counts included), and
    shared with no other run, so changing one run's profile moves no
    other run's, nor the next run's."""
    program = build_workload("mpeg2_encode", "mom3d", 0).program
    configs = [build_configs(RunSpec(benchmark="mpeg2_encode",
                                     coding="mom3d", memsys=memsys))
               for memsys in ("vector", "multibank")]
    oracle = simulate(program, *configs[0],
                      model="reference").to_dict()["veclen"]
    assert oracle["loads3d"] and oracle["current_slices"]
    runs = [*GridPipeline(program, configs).run(),
            simulate(program, *configs[1], model="batched")]
    assert [run.to_dict()["veclen"] for run in runs] == [oracle] * 3
    runs[0].veclen.record_dvmov3(0)
    runs[0].veclen.record_dvload3(1, 8, 4)
    runs += [*GridPipeline(program, configs).run(),
             simulate(program, *configs[0], model="batched")]
    assert [run.to_dict()["veclen"] for run in runs[1:]] == [oracle] * 5


@pytest.fixture(scope="module")
def paper_grid_baseline():
    """Per-spec batched results for the deduped fig3+fig9+table1 grid."""
    specs = paper_grids()
    return specs, {spec: execute_spec(spec).to_dict() for spec in specs}


def _assert_grid_matches(results, baseline):
    for spec, payload in baseline.items():
        assert results[spec].to_dict() == payload, spec.label()


@pytest.mark.parametrize("grid_mode", ("on", "off", "auto"))
def test_grid_modes_bit_identical_inline(paper_grid_baseline,
                                         grid_mode):
    specs, baseline = paper_grid_baseline
    engine = Engine(use_cache=False, backend="inline",
                    grid_mode=grid_mode)
    _assert_grid_matches(engine.run_many(specs), baseline)
    if grid_mode != "off":
        assert engine.stats.grid_groups > 0


def test_inline_grid_counters_count_execution(monkeypatch):
    """On the inline backend the ``[engine]`` grid counters report what
    ran: one ``GridPipeline.run`` per counted grid group and one
    ``execute_spec`` per counted fallback."""
    from repro.engine import parallel
    from repro.timing import grid

    calls = {"grid": 0, "spec": 0}
    run = grid.GridPipeline.run
    execute = parallel.execute_spec

    def counting_run(self, warm=True):
        calls["grid"] += 1
        return run(self, warm=warm)

    def counting_execute(spec):
        calls["spec"] += 1
        return execute(spec)

    monkeypatch.setattr(grid.GridPipeline, "run", counting_run)
    monkeypatch.setattr(parallel, "execute_spec", counting_execute)
    engine = Engine(use_cache=False, backend="inline")
    engine.run_many(paper_grids())
    assert (engine.stats.grid_groups, engine.stats.grid_fallbacks) \
        == (10, 5)
    assert calls == {"grid": engine.stats.grid_groups,
                     "spec": engine.stats.grid_fallbacks}


@pytest.mark.parametrize("grid_mode", ("on", "off", "auto"))
def test_grid_modes_bit_identical_process(paper_grid_baseline,
                                          grid_mode):
    specs, baseline = paper_grid_baseline
    engine = Engine(use_cache=False, backend="process", jobs=2,
                    grid_mode=grid_mode)
    _assert_grid_matches(engine.run_many(specs, jobs=2), baseline)


@pytest.mark.parametrize("grid_mode", ("on", "off", "auto"))
def test_grid_modes_bit_identical_remote(paper_grid_baseline,
                                         grid_mode):
    """Remote execution: shards keep trace groups together and the
    workers' own engines run them in the requested grid mode."""
    specs, baseline = paper_grid_baseline
    backend = RemoteBackend(lease_ttl=10.0, wait_timeout=120.0)
    engine = Engine(use_cache=False, backend=backend,
                    grid_mode=grid_mode)
    with background_server(engine, window=0.01) as server:
        worker = ServiceWorker(
            server.url, Engine(use_cache=False, grid_mode=grid_mode),
            worker_id="grid-w0", poll_interval=0.02)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            _assert_grid_matches(engine.run_many(specs, jobs=3),
                                 baseline)
        finally:
            worker.stop()
            thread.join(timeout=30)
