"""Trace save/replay and report-generation tests."""

import numpy as np

from repro.cli import main
from repro.harness.traceio import export_workload, load_trace, save_trace
from repro.timing import mom3d_processor, simulate, vector_memsys
from repro.workloads import get_benchmark


def test_trace_roundtrip_preserves_timing(tmp_path):
    """A replayed trace must time identically to the original."""
    workload = get_benchmark("gsm_encode").build("mom3d")
    path = tmp_path / "gsm.trace"
    save_trace(workload.program, path)
    replayed = load_trace(path)
    assert replayed.name == workload.program.name
    assert len(replayed) == len(workload.program)
    original = simulate(workload.program, mom3d_processor(),
                        vector_memsys())
    again = simulate(replayed, mom3d_processor(), vector_memsys())
    assert again.cycles == original.cycles
    assert again.l2_activity == original.l2_activity


def test_trace_roundtrip_preserves_semantics(tmp_path):
    """A replayed trace executes to the same memory contents."""
    workload = get_benchmark("mpeg2_decode").build("mom")
    path = tmp_path / "m2d.trace"
    save_trace(workload.program, path)
    replayed = load_trace(path)

    from repro.vm import Executor, FlatMemory
    mem_a = FlatMemory(workload.memory.size)
    mem_a.data[:] = workload.memory.data
    mem_b = FlatMemory(workload.memory.size)
    mem_b.data[:] = workload.memory.data
    Executor(mem_a).run(workload.program)
    Executor(mem_b).run(replayed)
    assert np.array_equal(mem_a.data, mem_b.data)


def test_export_workload(tmp_path):
    path = tmp_path / "w.trace"
    nbytes = export_workload("gsm_encode", "mom", path)
    assert path.stat().st_size == nbytes > 1000


def test_cli_trace_and_replay(tmp_path, capsys):
    path = tmp_path / "t.trace"
    assert main(["trace", "gsm_encode", "mom3d", "-o", str(path)]) == 0
    assert main(["replay", str(path), "--coding", "mom3d"]) == 0
    out = capsys.readouterr().out
    assert "cycles" in out


def test_cli_replay_routes_through_engine(tmp_path, capsys,
                                          monkeypatch):
    """Replays resolve through the engine: the first run simulates and
    stores, a rerun is a pure disk hit (content-addressed by trace)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    path = tmp_path / "t.trace"
    assert main(["trace", "gsm_encode", "mom3d", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["replay", str(path), "--coding", "mom3d"]) == 0
    first = capsys.readouterr()
    assert "simulations=1" in first.err and "stores=1" in first.err

    # same bytes from a different path: still a cache hit
    copy = tmp_path / "copy.trace"
    copy.write_bytes(path.read_bytes())
    assert main(["replay", str(copy), "--coding", "mom3d"]) == 0
    second = capsys.readouterr()
    assert "simulations=0" in second.err and "disk-hits=1" in second.err
    assert first.out == second.out

    # --seed is irrelevant to a fixed trace: still the same entry
    assert main(["replay", str(path), "--coding", "mom3d",
                 "--seed", "7"]) == 0
    assert "simulations=0" in capsys.readouterr().err


def test_cli_replay_honors_set_override_axes(tmp_path, capsys):
    path = tmp_path / "t.trace"
    assert main(["trace", "gsm_encode", "mom3d", "-o", str(path)]) == 0
    assert main(["replay", str(path), "--coding", "mom3d", "--no-cache",
                 "--set", "l2_line=64,128"]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if "l2_line=" in line]
    assert len(rows) == 2
    assert any("l2_line=64" in row for row in rows)


def test_trace_paths_ship_to_pool_workers(tmp_path, monkeypatch):
    """Pool workers re-register the parent's trace paths explicitly,
    so replays parallelize under spawn (no fork-inherited state)."""
    from repro.engine import RunSpec, register_trace
    from repro.engine import parallel
    from repro.engine.backends.inline import InlineBackend, _pool_worker

    path = tmp_path / "t.trace"
    export_workload("gsm_encode", "mom", path)
    benchmark = register_trace(path)
    specs = [RunSpec(benchmark, "mom", "vector", lat)
             for lat in (20, 40)]
    shipped = parallel.trace_paths_for(specs)
    assert shipped == ((benchmark.split(":", 1)[1], str(path)),)

    # simulate a spawn-fresh worker: empty registry, paths passed in
    monkeypatch.setattr(parallel, "_TRACE_PATHS", {})
    monkeypatch.setattr(parallel, "_WORKLOADS", type(
        parallel._WORKLOADS)())
    payloads = _pool_worker(tuple(specs), shipped)
    assert len(payloads) == 2 and payloads[0]["cycles"] > 0

    # and the end-to-end pool path agrees with serial execution; the
    # pool runs one shard per trace, so a second trace makes it pool
    other = tmp_path / "t3d.trace"
    export_workload("gsm_encode", "mom3d", other)
    specs += [RunSpec(register_trace(other), "mom3d", "vector", lat)
              for lat in (20, 40)]
    pool = InlineBackend(jobs=2)
    parallel_results = pool.execute(specs)
    assert pool.counters()["pool_shards"] == 2
    serial_results = InlineBackend(jobs=1).execute(specs)
    for spec in specs:
        assert parallel_results[spec].to_dict() == \
            serial_results[spec].to_dict()


def test_register_trace_is_content_addressed(tmp_path):
    from repro.engine import register_trace

    path = tmp_path / "t.trace"
    export_workload("gsm_encode", "mom", path)
    copy = tmp_path / "elsewhere.trace"
    copy.write_bytes(path.read_bytes())
    assert register_trace(path) == register_trace(copy)

    mutated = bytearray(path.read_bytes())
    mutated[-1] ^= 0xFF
    changed = tmp_path / "changed.trace"
    changed.write_bytes(bytes(mutated))
    assert register_trace(changed) != register_trace(path)


def test_mutated_trace_file_fails_instead_of_poisoning_cache(
        tmp_path, monkeypatch):
    """A trace file rewritten after registration must not simulate
    under the stale content digest."""
    import pytest

    from repro.engine import RunSpec, execute_spec, register_trace
    from repro.engine import parallel
    from repro.errors import ConfigError

    # fresh workload memo: the same trace bytes may have been built
    # (and memoized) by other tests in this session
    monkeypatch.setattr(parallel, "_WORKLOADS",
                        type(parallel._WORKLOADS)())
    path = tmp_path / "t.trace"
    export_workload("gsm_encode", "mom", path)
    benchmark = register_trace(path)
    export_workload("gsm_encode", "mmx", path)  # overwrite in place
    with pytest.raises(ConfigError, match="changed since registration"):
        execute_spec(RunSpec(benchmark, "mom", "ideal"))


def test_cli_report(tmp_path, capsys):
    path = tmp_path / "results.md"
    assert main(["report", "-o", str(path)]) == 0
    text = path.read_text()
    assert "## fig9" in text
    assert "## table3" in text
    assert "2826240" in text
    # markdown tables present
    assert text.count("|---") >= 8
