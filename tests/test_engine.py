"""Engine tests: spec digests, cache round-trips, parallel determinism."""

import json

import pytest

from repro.engine import (
    Engine,
    ResultCache,
    RunSpec,
    Sweep,
    axes_product,
    build_configs,
    execute_spec,
    validate_spec,
)
from repro.cli import main
from repro.errors import ConfigError
from repro.harness import Runner
from repro.timing.stats import RunStats

BENCH = "gsm_encode"  # smallest trace; keeps engine tests quick


# --- RunSpec ------------------------------------------------------------------


def test_runspec_digest_stable():
    a = RunSpec(BENCH, "mom", "vector", 40)
    b = RunSpec(BENCH, "mom", "vector", 40)
    assert a == b
    assert a.digest() == b.digest()


def test_runspec_overrides_order_independent():
    a = RunSpec(BENCH, "mom", overrides={"l2_line": 64, "mb_banks": 4})
    b = RunSpec(BENCH, "mom",
                overrides=(("mb_banks", 4), ("l2_line", 64)))
    assert a == b
    assert a.digest() == b.digest()


def test_runspec_digests_collision_free_across_grid():
    sweep = Sweep(benchmarks=(BENCH, "jpeg_encode"),
                  codings=("mmx", "mom", "mom3d"),
                  memsystems=("vector", "multibank"),
                  l2_latencies=(20, 40),
                  overrides=axes_product(l2_line=(64, 128)))
    specs = sweep.specs()
    digests = {spec.digest() for spec in specs}
    assert len(digests) == len(specs) == len(sweep)


def test_runspec_each_field_changes_digest():
    base = RunSpec(BENCH, "mom", "vector", 20, warm=True, seed=0)
    variants = [
        RunSpec("jpeg_encode", "mom", "vector", 20),
        RunSpec(BENCH, "mom3d", "vector", 20),
        RunSpec(BENCH, "mom", "multibank", 20),
        RunSpec(BENCH, "mom", "vector", 40),
        RunSpec(BENCH, "mom", "vector", 20, warm=False),
        RunSpec(BENCH, "mom", "vector", 20, seed=1),
        RunSpec(BENCH, "mom", "vector", 20, overrides={"l2_line": 64}),
    ]
    for variant in variants:
        assert variant.digest() != base.digest(), variant


def test_runspec_ideal_canonicalizes_latency():
    assert RunSpec(BENCH, "mom", "ideal", 20) == \
        RunSpec(BENCH, "mom", "ideal", 60)


def test_runspec_rejects_unknowns():
    with pytest.raises(ConfigError):
        RunSpec(BENCH, "avx512")
    with pytest.raises(ConfigError):
        RunSpec(BENCH, "mom", "dram-only")
    with pytest.raises(ConfigError):
        RunSpec(BENCH, "mom", overrides={"l2_line": [64]})


def test_runspec_json_round_trip():
    spec = RunSpec(BENCH, "mom3d", "vector", 40, warm=False, seed=3,
                   overrides={"simd_lanes": 8, "l2_line": 64})
    again = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec
    assert again.digest() == spec.digest()


# --- config building ----------------------------------------------------------


def test_build_configs_applies_overrides_per_layer():
    spec = RunSpec(BENCH, "mom3d", "vector",
                   overrides={"simd_lanes": 8, "l2_line": 64,
                              "vc_width_words": 2})
    proc, memsys = build_configs(spec)
    assert proc.simd_lanes == 8
    assert memsys.hierarchy.l2_line == 64
    assert memsys.vc_width_words == 2


def test_build_configs_rejects_unknown_field():
    with pytest.raises(ConfigError):
        build_configs(RunSpec(BENCH, "mom", overrides={"warp_size": 32}))
    with pytest.raises(ConfigError):
        build_configs(RunSpec(BENCH, "mom", overrides={"l2_latency": 40}))


def test_build_configs_rejects_mistyped_values():
    with pytest.raises(ConfigError):
        build_configs(RunSpec(BENCH, "mom",
                              overrides={"simd_lanes": 2.5}))
    with pytest.raises(ConfigError):
        build_configs(RunSpec(BENCH, "mom", overrides={"l2_line": "128"}))


#: overrides no machine can have: each used to raise mid-simulation,
#: simulate (and cache) an impossible machine or, for mem_issue=0,
#: never finish
IMPOSSIBLE_OVERRIDES = [
    ("mem_issue", 0), ("l2_size", 0), ("l2_ways", 0), ("l1_line", 0),
    ("window", 0), ("lsq", 0), ("int_fus", 0), ("vc_width_words", 0),
    ("mb_banks", 0), ("extra_vector_regs", 0), ("extra_d3_regs", 0),
    ("extra_ptr_regs", 0), ("l2_line", 3), ("l1_size", 100),
    ("simd_lanes", 0), ("fetch_width", 0), ("retire_width", 0),
    ("l1_ports", 0), ("mb_ports", 0)]


@pytest.mark.parametrize("field,value", IMPOSSIBLE_OVERRIDES)
def test_impossible_overrides_fail_validation(field, value, capsys):
    spec = RunSpec(BENCH, "mom3d", "multibank", overrides={field: value})
    with pytest.raises(ConfigError, match=field):
        validate_spec(spec)
    assert main(["sweep", "-b", BENCH, "-c", "mom3d", "-m", "multibank",
                 "--set", f"{field}={value}", "--backend", "inline",
                 "--no-cache"]) == 2
    assert field in capsys.readouterr().err


# --- RunStats serialization ---------------------------------------------------


@pytest.fixture(scope="module")
def real_stats():
    return {
        "mom3d/vector": execute_spec(RunSpec(BENCH, "mom3d", "vector")),
        "mom/multibank": execute_spec(RunSpec(BENCH, "mom", "multibank")),
        "mmx/ideal": execute_spec(RunSpec(BENCH, "mmx", "ideal")),
    }


def test_runstats_round_trip_through_json(real_stats):
    for label, stats in real_stats.items():
        payload = json.loads(json.dumps(stats.to_dict()))
        again = RunStats.from_dict(payload)
        assert again == stats, label
        # derived metrics survive too
        assert again.ipc == stats.ipc
        assert again.effective_bandwidth == stats.effective_bandwidth
        assert again.veclen.dim3 == stats.veclen.dim3


# --- disk cache ---------------------------------------------------------------


def test_cache_round_trip(tmp_path, closes):
    spec = RunSpec(BENCH, "mom", "vector")
    first = closes(Engine(cache_dir=tmp_path))
    stats = first.run(spec)
    assert first.stats.simulations == 1
    assert first.stats.stores == 1

    second = closes(Engine(cache_dir=tmp_path))
    again = second.run(spec)
    assert second.stats.simulations == 0
    assert second.stats.disk_hits == 1
    assert again == stats
    # and the second engine's copy memoizes by identity
    assert second.run(spec) is again
    assert second.stats.memo_hits == 1


def test_cache_namespaced_by_code_version(tmp_path, closes):
    spec = RunSpec(BENCH, "mom", "vector")
    old = closes(ResultCache(tmp_path, version="v-old"))
    old.put(spec, RunStats(name="x"))
    fresh = closes(ResultCache(tmp_path, version="v-new"))
    assert fresh.get(spec) is None
    assert len(fresh) == 0


def test_cache_ignores_corrupt_entries(tmp_path, closes):
    from repro.engine.store import MAGIC, _frame

    spec = RunSpec(BENCH, "mom", "vector")
    shaped = RunSpec(BENCH, "mom3d", "vector")
    cache = closes(ResultCache(tmp_path, version="v"))
    cache.dir.mkdir(parents=True)
    # a well-formed frame (CRC intact, so it indexes) whose payload
    # is not JSON
    (cache.dir / "seg-000000.seg").write_bytes(
        MAGIC + _frame(spec.digest(), b"{not json"))
    # valid JSON of the wrong shape reads as a miss too
    cache.store().append_many([(shaped.digest(), {"stats": None})])
    assert len(cache) == 2
    assert cache.get(spec) is None
    assert cache.get(shaped) is None
    assert cache.get_many([spec, shaped]) == {}


@pytest.mark.parametrize("payload", (b"{not json", b'{"stats":null}'))
def test_fresh_result_supersedes_an_undecodable_record(tmp_path,
                                                       payload, closes):
    """A CRC-valid record that does not decode is re-simulated once:
    the fresh result replaces it on disk, a second engine hits, and
    gc drops the bad frame."""
    from repro.engine.store import MAGIC, _frame

    spec = RunSpec(BENCH, "mom", "vector")
    planted = closes(ResultCache(tmp_path))
    planted.dir.mkdir(parents=True)
    (planted.dir / "seg-000000.seg").write_bytes(
        MAGIC + _frame(spec.digest(), payload))

    first = closes(Engine(cache_dir=tmp_path, backend="inline"))
    stats = first.run_many([spec])[spec]
    assert (first.stats.simulations, first.stats.stores) == (1, 1)

    second = closes(Engine(cache_dir=tmp_path, backend="inline"))
    assert second.run_many([spec])[spec] == stats
    assert second.stats.simulations == 0
    assert second.stats.disk_hits == 1

    cache = closes(ResultCache(tmp_path))
    removed, _reclaimed = cache.gc()
    assert removed == 1
    assert closes(ResultCache(tmp_path)).get(spec) == stats


def test_cache_management_versions_entries_gc(tmp_path, closes):
    spec = RunSpec(BENCH, "mom", "vector")
    current = closes(ResultCache(tmp_path, version="v-new"))
    current.put(spec, RunStats(name="x"))
    old = closes(ResultCache(tmp_path, version="v-old"))
    old.put(spec, RunStats(name="y"))
    old.put(RunSpec(BENCH, "mom3d", "vector"), RunStats(name="z"))

    # the active version sorts first; entries carry spec labels + sizes
    assert current.versions() == ["v-new", "v-old"]
    entries = current.entries()
    assert [e.label for e in entries] == [spec.label()]
    assert entries[0].size > 0 and entries[0].digest == spec.digest()
    assert len(current.entries("v-old")) == 2
    # the stat fast path skips payload reads but keeps count/size
    fast = current.entries(labels=False)
    assert [e.label for e in fast] == [""]
    assert fast[0].size == entries[0].size

    removed, reclaimed = current.gc()
    assert removed == 2 and reclaimed > 0
    assert current.versions() == ["v-new"]
    assert current.get(spec) is not None  # active entries untouched
    assert old.get(spec) is None


def test_cache_gc_dry_run_reports_without_deleting(tmp_path, closes):
    spec = RunSpec(BENCH, "mom", "vector")
    current = closes(ResultCache(tmp_path, version="v-new"))
    current.put(spec, RunStats(name="x"))
    old = closes(ResultCache(tmp_path, version="v-old"))
    old.put(spec, RunStats(name="y"))
    old.put(RunSpec(BENCH, "mom3d", "vector"), RunStats(name="z"))

    would_remove, would_reclaim = current.gc(dry_run=True)
    assert would_remove == 2 and would_reclaim > 0
    # nothing was touched: both versions still fully present
    assert current.versions() == ["v-new", "v-old"]
    assert old.get(spec) is not None

    # a real gc then deletes exactly what the dry run promised
    removed, reclaimed = current.gc()
    assert (removed, reclaimed) == (would_remove, would_reclaim)
    assert current.versions() == ["v-new"]


def test_cache_entries_list_unreadable_files(tmp_path, closes):
    cache = closes(ResultCache(tmp_path, version="v"))
    # a record whose stored spec does not decode still lists
    cache.store().append_many(
        [("d" * 64, {"spec": {"benchmark": BENCH}, "stats": None})])
    entries = cache.entries()
    assert len(entries) == 1
    assert entries[0].label == "?"


def test_cache_gc_never_touches_foreign_directories(tmp_path, closes):
    """gc against a mispointed root must not destroy unrelated data:
    only directories holding nothing but *.json/*.tmp files qualify."""
    cache = closes(ResultCache(tmp_path, version="v-new"))
    cache.put(RunSpec(BENCH, "mom", "vector"), RunStats(name="x"))
    photos = tmp_path / "photos"
    photos.mkdir()
    (photos / "holiday.png").write_bytes(b"\x89PNG...")
    nested = tmp_path / "project"
    (nested / "sub").mkdir(parents=True)
    (nested / "notes.json").write_text("{}")  # json, but has a subdir
    empty = tmp_path / "inbox"
    empty.mkdir()  # empty dirs prove nothing about ownership

    removed, _reclaimed = cache.gc()
    assert removed == 0
    assert (photos / "holiday.png").exists()
    assert (nested / "notes.json").exists()
    assert empty.is_dir()
    # ls/stat see the same world gc acts on: no foreign "versions"
    assert cache.versions() == ["v-new"]

    # a real superseded namespace alongside them is still collected
    closes(ResultCache(tmp_path, version="v-old")).put(
        RunSpec(BENCH, "mom", "vector"), RunStats(name="y"))
    removed, _reclaimed = cache.gc()
    assert removed == 1
    assert not (tmp_path / "v-old").exists()
    assert (photos / "holiday.png").exists()


def test_engine_without_cache_simulates_once_per_spec(tmp_path):
    engine = Engine(use_cache=False)
    spec = RunSpec(BENCH, "mom", "vector")
    first = engine.run(spec)
    assert engine.run(spec) is first
    assert engine.stats.simulations == 1
    assert engine.stats.stores == 0


def test_closed_engine_reads_back_and_drops_without_warning(tmp_path):
    """``Engine.close`` closes the store's files and the backend: a
    dropped engine leaves no file to the GC, and a closed engine still
    reads its results back from disk (the store reopens on demand)."""
    import gc
    import warnings

    closed = []
    engine = Engine(cache_dir=tmp_path, backend="inline")
    engine.backend.close = lambda: closed.append(True)
    spec = engine.spec(BENCH, "mom", "ideal")
    stats = engine.run(spec)
    engine.close()
    assert closed == [True]
    assert engine.cache.get(spec).to_dict() == stats.to_dict()
    engine.close()
    # collect other tests' garbage now, so only this engine is
    # collected inside the window
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        del engine
        gc.collect()
    assert [str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)] == []


# --- sharding -----------------------------------------------------------------


def test_shard_specs_empty_and_oversubscribed():
    """No specs yield no shards, and a grid with many more specs than
    traces still yields no empty shard: the shards partition the
    specs."""
    from repro.engine import shard_specs

    assert shard_specs([]) == []

    sweep = Sweep(benchmarks=(BENCH,), codings=("mom", "mom3d"),
                  memsystems=("vector",), l2_latencies=(20, 40))
    specs = sweep.specs()
    shards = shard_specs(specs)
    assert all(shards), "no shard may be empty"
    flattened = [spec for shard in shards for spec in shard]
    assert sorted(flattened, key=str) == sorted(specs, key=str)


def test_shard_specs_groups_by_workload():
    """One shard per ``(benchmark, coding, seed)`` trace, in first-seen
    order, each keeping its specs in input order."""
    from repro.engine import shard_specs

    sweep = Sweep(benchmarks=(BENCH, "jpeg_encode"),
                  codings=("mom", "mom3d"),
                  memsystems=("vector", "multibank"),
                  l2_latencies=(20, 40))
    # each trace's specs arrive interleaved with the others', odd
    # positions reversed first, then the even ones in order; a cold
    # spec shares its trace's shard, and another seed is another trace
    grid = sweep.specs()
    cold = RunSpec(BENCH, "mom", "ideal", warm=False)
    other_seed = RunSpec(BENCH, "mom", "ideal", seed=1)
    specs = grid[1::2][::-1] + [cold] + grid[::2] + [other_seed]
    traces = [("jpeg_encode", "mom3d", 0), ("jpeg_encode", "mom", 0),
              (BENCH, "mom3d", 0), (BENCH, "mom", 0), (BENCH, "mom", 1)]
    shards = shard_specs(specs)
    assert len(shards) == len(traces)
    for trace, shard in zip(traces, shards):
        assert shard == [s for s in specs
                         if (s.benchmark, s.coding, s.seed) == trace]


# --- parallel determinism -----------------------------------------------------


def test_run_many_parallel_matches_serial():
    sweep = Sweep(benchmarks=(BENCH,), codings=("mom", "mom3d"),
                  memsystems=("vector",), l2_latencies=(20, 40))
    specs = sweep.specs()
    serial = Engine(use_cache=False, jobs=1).run_many(specs)
    parallel = Engine(use_cache=False, jobs=4).run_many(specs)
    assert set(serial) == set(parallel) == set(specs)
    for spec in specs:
        assert serial[spec].to_dict() == parallel[spec].to_dict(), spec
        assert serial[spec] == parallel[spec]


def test_run_many_deduplicates_and_counts(tmp_path, closes):
    engine = closes(Engine(cache_dir=tmp_path))
    spec = RunSpec(BENCH, "mom", "vector")
    ideal_20 = RunSpec(BENCH, "mom", "ideal", 20)
    ideal_60 = RunSpec(BENCH, "mom", "ideal", 60)  # same canonical spec
    results = engine.run_many([spec, spec, ideal_20, ideal_60])
    assert engine.stats.simulations == 2
    assert results[ideal_20] is results[ideal_60]


# --- sweep builder ------------------------------------------------------------


def test_sweep_cartesian_order_and_len():
    sweep = Sweep(benchmarks=("a1",), codings=("mom",),
                  memsystems=("vector", "multibank"),
                  l2_latencies=(20, 40))
    with pytest.raises(ConfigError):
        # benchmark names are validated lazily (at build time), but
        # codings/memsystems are validated at spec construction
        Sweep(benchmarks=("a1",), codings=("bad",)).specs()
    specs = sweep.specs()
    assert len(specs) == len(sweep) == 4
    assert [(s.memsys, s.l2_latency) for s in specs] == [
        ("vector", 20), ("vector", 40),
        ("multibank", 20), ("multibank", 40)]


def test_axes_product():
    grid = axes_product(l2_line=(64, 128), mb_banks=(4, 8))
    assert len(grid) == 4
    assert {"l2_line": 64, "mb_banks": 8} in grid


# --- runner façade ------------------------------------------------------------


def test_runner_prefetch_then_runs_are_memo_hits():
    runner = Runner(use_cache=False)
    sweep = Sweep(benchmarks=(BENCH,), codings=("mom",),
                  memsystems=("vector", "multibank"))
    runner.prefetch(sweep.specs())
    simulated = runner.engine.stats.simulations
    runner.run(BENCH, "mom", "vector")
    runner.run(BENCH, "mom", "multibank")
    assert runner.engine.stats.simulations == simulated
    assert runner.engine.stats.memo_hits >= 2


def test_slowdown_baseline_shared_across_latencies():
    """The ideal baseline is requested at the measured latency, and the
    engine canonicalizes it to one simulation shared by all of them."""
    runner = Runner(use_cache=False)
    s20 = runner.slowdown(BENCH, "mom", "vector", 20)
    s60 = runner.slowdown(BENCH, "mom", "vector", 60)
    assert s60 >= s20 >= 1.0
    ideal_runs = [spec for spec in runner.engine._memo
                  if spec.memsys == "ideal"]
    assert len(ideal_runs) == 1
