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
per-spec batched path for every paper grid point, warm and cold, and
through the engine's plan on the inline backend, its process pool and
remote workers, on three routes: every spec on the grid, every spec
per spec, and the whole grid, where the plan mixes both.  All 46 specs of a cold ``repro tables`` run through
the engine's plan and the per-spec path, and those outside the paper
grids through the oracle as well.
"""

import dataclasses
import threading

import pytest

from repro.engine import Engine, RemoteBackend
from repro.engine.keys import RunSpec
from repro.engine.parallel import (
    build_configs,
    build_workload,
    execute_spec,
    plan_grid,
    simulate_specs,
)
from repro.harness.experiments import SWEEPS, experiment_specs, paper_grids
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


def test_engine_timing_model_override(tmp_path, closes):
    """The engine runs the reference model via the RunSpec override and
    produces equal statistics under a distinct cache key."""
    engine = closes(Engine(cache_dir=tmp_path))
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


def test_tables_specs_match_per_spec_and_oracle(paper_grid_baseline):
    """Every spec a cold ``repro tables`` simulates gives one
    ``RunStats.to_dict()`` through the engine's plan
    (``simulate_specs``) and through the per-spec path
    (``execute_spec``).  The 16 specs outside ``paper_grids()``,
    fig10's 40- and 60-cycle points, also meet the
    ``timing_model=reference`` oracle here; the other 30 meet it point
    by point in ``test_batched_bit_identical_on_paper_grid``."""
    _, baseline = paper_grid_baseline
    specs = experiment_specs(SWEEPS)
    assert len(specs) == 46
    groups, fallbacks = plan_grid(specs)
    assert (len(groups), len(fallbacks)) == (14, 1)
    planned = simulate_specs(specs)
    for spec in specs:
        per_spec = baseline.get(spec)
        if per_spec is None:
            per_spec = execute_spec(spec).to_dict()
            oracle = execute_spec(dataclasses.replace(
                spec, overrides=(*spec.overrides,
                                 ("timing_model", "reference"))))
            assert per_spec == oracle.to_dict(), spec.label()
        assert planned[spec].to_dict() == per_spec, spec.label()


#: The engine's plan for each route's specs, as (grid groups, per-spec
#: fallbacks): ``auto`` is the whole paper grid, where the one rule
#: mixes both paths; ``on`` keeps only the members of its multi-spec
#: trace groups, so every spec runs on the grid; ``off`` keeps one spec
#: per trace group, so every spec runs per spec.
_ROUTE_PLANS = {"on": (10, 0), "off": (0, 15), "auto": (10, 5)}


def _routed(paper_grid_baseline, route):
    """The paper-grid specs that take ``route``, and their baseline."""
    specs, baseline = paper_grid_baseline
    groups, fallbacks = plan_grid(specs)
    if route == "on":
        specs = [spec for members in groups for spec in members]
    elif route == "off":
        specs = [members[0] for members in groups] + fallbacks
    return specs, {spec: baseline[spec] for spec in specs}


def _plan_counts(engine):
    return engine.stats.grid_groups, engine.stats.grid_fallbacks


@pytest.mark.parametrize("route", tuple(_ROUTE_PLANS))
def test_grid_modes_bit_identical_inline(paper_grid_baseline, route):
    specs, baseline = _routed(paper_grid_baseline, route)
    engine = Engine(use_cache=False, backend="inline")
    _assert_grid_matches(engine.run_many(specs), baseline)
    assert _plan_counts(engine) == _ROUTE_PLANS[route]


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


@pytest.mark.parametrize("route", tuple(_ROUTE_PLANS))
def test_grid_modes_bit_identical_process(paper_grid_baseline, route):
    specs, baseline = _routed(paper_grid_baseline, route)
    engine = Engine(use_cache=False, jobs=2)
    _assert_grid_matches(engine.run_many(specs), baseline)
    assert _plan_counts(engine) == _ROUTE_PLANS[route]


@pytest.mark.parametrize("route", tuple(_ROUTE_PLANS))
def test_grid_modes_bit_identical_remote(paper_grid_baseline, route):
    """Remote execution: shards keep trace groups together, and the
    worker plans each leased shard with the local rule — the lease
    carries only its specs — so its engine counts the same grid groups
    and per-spec fallbacks as an inline dispatch of the route."""
    specs, baseline = _routed(paper_grid_baseline, route)
    backend = RemoteBackend(lease_ttl=10.0, wait_timeout=120.0, shards=3)
    engine = Engine(use_cache=False, backend=backend)
    worker_engine = Engine(use_cache=False)
    with background_server(engine) as server:
        worker = ServiceWorker(
            server.url, worker_engine,
            worker_id="grid-w0", poll_interval=0.02)

        def work():
            try:
                worker.run()
            finally:
                worker.client.close()  # this thread's connection

        thread = threading.Thread(target=work, daemon=True)
        thread.start()
        try:
            _assert_grid_matches(engine.run_many(specs), baseline)
        finally:
            worker.stop()
            thread.join(timeout=30)
    assert _plan_counts(worker_engine) == _ROUTE_PLANS[route]
