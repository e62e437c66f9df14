"""What a command loads before it runs anything.

A cache-hit command (and ``import repro.cli`` itself) must not pay for
numpy, the timing pipelines, the trace generators, the VM, the backend
machinery, the explorer's search or the service stack: they load when a
command first simulates, builds, dispatches or serves.  A cold command
loads the simulator, but still not the VM's executor, the explorer's
search, a backend it does not run or, at one job or over one trace, a
process pool; at the default width (the usable cores) a dispatch over
two or more traces pools.
Every check runs in a fresh interpreter, because the pytest process
has long since imported everything.

Run as a script, this module checks a JSON list of module names (a
``sorted(sys.modules)`` dump taken as a command ends) against the warm
or the cold list and exits 1 if any forbidden module appears::

    python tests/test_import_boundary.py warm warm-modules.json
    python tests/test_import_boundary.py cold cold-modules.json
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: the backend modules a run on the inline backend never loads
_IDLE_BACKENDS = tuple(f"repro.engine.backends.{name}"
                       for name in ("remote", "workqueue"))

#: modules a cache hit must not load, each with its submodules
FORBIDDEN = (
    "numpy", "asyncio", "multiprocessing", "concurrent.futures.process",
    "http.client", "ssl", "importlib.metadata", "repro.vm",
    "repro.compiler", "repro.engine.parallel", *_IDLE_BACKENDS,
    "repro.explore.search", "repro.explore.pareto", "repro.isa.builder",
    "repro.isa.instructions",
    *(f"repro.memsys.{name}" for name in (
        "ideal", "l1port", "multibank", "vectorcache")),
    *(f"repro.timing.{name}" for name in (
        "pipeline", "batched", "reference", "grid", "predecode",
        "resources")),
    *(f"repro.workloads.{name}" for name in (
        "gsm", "jpeg", "mpeg2", "motion", "dctkernels", "dctmath",
        "frames")),
)
#: the only service modules a cache hit may load: the engine's segment
#: store reads its fault plan from ``repro.service.faults``
SERVICE_ALLOWED = ("repro.service", "repro.service.faults")

#: modules a cold run on the inline backend at one job must not load:
#: it builds and times traces, but executes none on the VM, searches no
#: design space, starts no other backend and no process pool
COLD_FORBIDDEN = (
    "repro.vm.executor", "repro.vm.state", "repro.vm.usimd_ops",
    "repro.explore.search", "repro.explore.pareto", *_IDLE_BACKENDS,
    "importlib.metadata", "multiprocessing", "concurrent.futures",
)

#: ``repro`` modules a cache-hit ``bench`` or ``tables`` loads; a change
#: that makes a cache hit import more fails here, without timing noise
WARM_REPRO_MODULES = 35


def _matches(module: str, names) -> bool:
    return any(module == name or module.startswith(f"{name}.")
               for name in names)


def cold_forbidden(modules) -> list[str]:
    """The modules of ``modules`` that a cold inline run must not load."""
    return sorted(module for module in modules
                  if _matches(module, COLD_FORBIDDEN))


def repro_modules(modules) -> list[str]:
    """The ``repro`` package's modules among ``modules``."""
    return sorted(module for module in modules if _matches(module,
                                                           ("repro",)))


def forbidden(modules) -> list[str]:
    """The modules of ``modules`` that a cache hit must not load."""
    return sorted(
        module for module in modules
        if _matches(module, FORBIDDEN)
        or (module.startswith("repro.service.")
            and module not in SERVICE_ALLOWED))


def importtime_modules(log: str) -> set[str]:
    """Module names in a ``python -X importtime`` stderr log."""
    return {line.rsplit("|", 1)[1].strip()
            for line in log.splitlines()
            if line.startswith("import time:") and line.count("|") == 2
            and not line.endswith("| imported package")}


def _fresh(tmp_path, code: str, *args: str, importtime: bool = False):
    """Run ``code`` in a fresh interpreter with ``args`` as
    ``sys.argv[1:]``; returns (modules it left loaded, the process)."""
    dump = tmp_path / "modules.json"
    script = (f"{code}\nimport json, sys\n"
              f"json.dump(sorted(sys.modules), open({str(dump)!r}, 'w'))\n")
    command = [sys.executable, *(["-X", "importtime"] if importtime else
                                 []), "-c", script, *args]
    proc = subprocess.run(
        command, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(dump.read_text())), proc


_CLI = "import sys\nfrom repro.cli import main\nstatus = main(sys.argv[1:])"


def test_import_repro_cli_loads_no_heavy_layer(tmp_path):
    modules, proc = _fresh(tmp_path, "import repro.cli", importtime=True)
    assert forbidden(modules) == []
    logged = importtime_modules(proc.stderr)
    assert {"repro.cli", "repro.engine"} <= logged
    assert forbidden(logged) == []


def _cold_then_warm(tmp_path, *command: str):
    """Run ``repro --cache-dir DIR command`` over an empty cache, then
    again over the cache it filled; checks each run's module set and
    returns the two ``[engine]`` lines."""
    args = ("--cache-dir", str(tmp_path / "cache"), *command)
    modules, cold = _fresh(tmp_path, _CLI, *args)
    assert cold_forbidden(modules) == []
    modules, warm = _fresh(tmp_path, _CLI, *args)
    assert warm.stdout == cold.stdout
    assert forbidden(modules) == []
    assert len(repro_modules(modules)) == WARM_REPRO_MODULES, \
        repro_modules(modules)
    return [proc.stderr.splitlines()[-1] for proc in (cold, warm)]


def test_warm_cli_run_loads_no_heavy_layer(tmp_path):
    cold, warm = _cold_then_warm(tmp_path, "--backend", "inline", "bench",
                                 "gsm_encode", "--coding", "mom")
    assert "simulations=1" in cold
    assert "simulations=0" in warm


def test_warm_tables_loads_no_heavy_layer(tmp_path):
    cold, warm = _cold_then_warm(tmp_path, "--backend", "inline",
                                 "--jobs", "1", "--seed", "0", "tables")
    assert "simulations=46 " in cold and "dispatches=1 " in cold
    assert cold.endswith(" pool-shards=0")
    assert "simulations=0 disk-hits=46 " in warm


def test_default_backend_tables_loads_no_heavy_layer(tmp_path):
    """Without ``--backend`` or ``--jobs`` a command runs on the inline
    backend as wide as the usable cores: cold, its one dispatch runs in
    a pool; warm, it starts none and loads what a one-job run loads."""
    import pytest

    from repro.engine.backends import usable_cores

    if usable_cores() < 2:
        pytest.skip("the default width pools from two usable cores")
    args = ("--cache-dir", str(tmp_path / "cache"), "--seed", "0",
            "tables")
    modules, cold = _fresh(tmp_path, _CLI, *args)
    cold_line = cold.stderr.splitlines()[-1]
    assert "simulations=46 " in cold_line and "dispatches=1 " in cold_line
    assert cold_line.endswith(" pool-shards=15")
    assert "concurrent.futures.process" in modules
    # the pool's own modules are the only ones a pooled cold run adds
    pool = ("multiprocessing", "concurrent.futures")
    assert [module for module in cold_forbidden(modules)
            if not _matches(module, pool)] == []
    modules, warm = _fresh(tmp_path, _CLI, *args)
    assert warm.stdout == cold.stdout
    assert forbidden(modules) == []
    assert len(repro_modules(modules)) == WARM_REPRO_MODULES, \
        repro_modules(modules)
    assert warm.stderr.splitlines()[-1].endswith(
        "dispatches=0 grid-groups=0 grid-fallbacks=0 pool-shards=0")


def test_default_engine_pools_no_single_trace_dispatch(tmp_path):
    """``Engine()`` is as wide as the usable cores (two here), yet
    building it, and a dispatch over one trace, load neither
    ``multiprocessing`` nor ``concurrent.futures``."""
    code = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from repro.engine import Engine, Sweep
engine = Engine(use_cache=False)
assert engine.backend.jobs == 2
assert not [name for name in sys.modules
            if name.split(".")[0] in ("multiprocessing", "concurrent")]
engine.run_many(Sweep(benchmarks=("gsm_encode",), codings=("mom",),
                      memsystems=("ideal", "vector")).specs())
assert engine.backend.counters() == {"dispatches": 1, "executed": 2,
                                     "pool_shards": 0}
"""
    modules, _proc = _fresh(tmp_path, code)
    assert [module for module in sorted(modules) if _matches(
        module, ("multiprocessing", "concurrent.futures"))] == []


def test_service_loads_no_explorer_or_models(tmp_path):
    """The service runs one job kind: serving, submitting and working
    load neither the explorer nor the power and area models, which
    ``repro explore --url`` runs in the client."""
    modules, _proc = _fresh(tmp_path, "import repro.service.server, "
                            "repro.service.client, repro.service.worker")
    assert [module for module in sorted(modules) if _matches(
        module, ("repro.explore", "repro.models"))] == []


def test_engine_build_workload_can_be_wrapped_in_place(tmp_path):
    """``repro.engine.build_workload`` is a real module attribute, not a
    lazy export: the end-to-end benchmark's tracer
    (``benchmarks/e2e/traced.py``) wraps it through ``vars(module)``.
    Defining it loads no spec executor."""
    code = ("import sys, repro.engine\n"
            "assert 'build_workload' in vars(repro.engine)\n"
            "assert 'repro.engine.parallel' not in sys.modules\n")
    _fresh(tmp_path, code)


def test_run_table3_loads_no_numpy(tmp_path):
    modules, proc = _fresh(tmp_path, _CLI, "--cache-dir",
                           str(tmp_path / "cache"), "run", "table3")
    assert "Register file areas" in proc.stdout
    assert "numpy" not in modules


def test_every_package_export_resolves(tmp_path):
    code = """
import importlib
packages = ("repro", "repro.isa", "repro.timing", "repro.service",
            "repro.workloads", "repro.engine", "repro.engine.backends",
            "repro.explore", "repro.memsys", "repro.vm")
for package in packages:
    module = importlib.import_module(package)
    for name in module.__all__:
        getattr(module, name)
    try:
        module.no_such_name
    except AttributeError:
        pass
    else:
        raise AssertionError(f"{package}.no_such_name resolved")
import repro, repro.timing, repro.vm
from repro.timing import grid, pipeline
from repro.service import server
assert repro.Executor is repro.vm.Executor
assert repro.timing.simulate is pipeline.simulate
assert repro.timing.GridPipeline is grid.GridPipeline
assert repro.service.serve is server.serve
"""
    _fresh(tmp_path, code)


def test_code_version_tracks_numpy_without_importing_it(tmp_path,
                                                       monkeypatch):
    from importlib import metadata

    from repro.engine import cache
    from repro.engine.cache import code_version

    assert cache.numpy_version() == metadata.version("numpy")
    code_version.cache_clear()
    try:
        current = code_version()
        monkeypatch.setattr(cache, "numpy_version", lambda: "0.0.0")
        code_version.cache_clear()
        assert code_version() != current
    finally:
        monkeypatch.undo()
        code_version.cache_clear()
    assert code_version() == current

    code = ("from repro.engine.cache import code_version\n"
            "import sys\nprint(code_version())\n"
            "assert 'numpy' not in sys.modules\n"
            "assert 'importlib.metadata' not in sys.modules\n")
    fresh = [_fresh(tmp_path, code)[1].stdout.strip() for _ in range(2)]
    assert fresh == [current, current]


def _fake_numpy(tmp_path, *records: str) -> Path:
    """A site directory holding a ``numpy`` package and ``records``."""
    site = tmp_path / "site"
    (site / "numpy").mkdir(parents=True)
    (site / "numpy" / "__init__.py").write_text("")
    for record in records:
        (site / record).mkdir()
    return site


def test_numpy_version_reads_the_install_record(tmp_path, monkeypatch):
    """The version comes from the one ``numpy-*.dist-info`` or
    ``.egg-info`` entry beside the package; without exactly one, it
    comes from ``importlib.metadata``."""
    import importlib.util
    from importlib import metadata

    from repro.engine.cache import numpy_version

    def find_spec_in(site):
        origin = site / "numpy" / "__init__.py"
        return lambda name: importlib.util.spec_from_file_location(
            name, origin)

    monkeypatch.setattr(metadata, "version", lambda name: "metadata")
    cases = ((("numpy-2.4.6.dist-info",), "2.4.6"),
             (("numpy-1.26.4-py3.11.egg-info",
               "numpy_financial-1.0.dist-info"), "1.26.4"),
             ((), "metadata"),
             (("numpy-1.0.dist-info", "numpy-2.0.dist-info"), "metadata"))
    for case, (records, expected) in enumerate(cases):
        site = _fake_numpy(tmp_path / str(case), *records)
        monkeypatch.setattr(importlib.util, "find_spec",
                            find_spec_in(site))
        assert numpy_version() == expected, records


if __name__ == "__main__":
    kind, dump = sys.argv[1:]
    check = {"warm": forbidden, "cold": cold_forbidden}[kind]
    found = check(json.loads(Path(dump).read_text()))
    for module in found:
        print(f"forbidden import: {module}")
    sys.exit(1 if found else 0)
