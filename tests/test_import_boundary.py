"""What a command loads before it runs anything.

A cache-hit command (and ``import repro.cli`` itself) must not pay for
numpy, the timing pipelines, the trace generators, the VM or the
service stack: they load when a command first simulates, builds or
serves.  Every check runs in a fresh interpreter, because the pytest
process has long since imported everything.

Run as a script, this module checks a ``python -X importtime`` log
against the same list and exits 1 if any forbidden module appears::

    python tests/test_import_boundary.py warm-imports.log
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: modules a cache hit must not load, each with its submodules
FORBIDDEN = (
    "numpy", "asyncio", "multiprocessing", "concurrent.futures.process",
    "http.client", "ssl", "repro.vm", "repro.compiler",
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


def forbidden(modules) -> list[str]:
    """The modules of ``modules`` that a cache hit must not load."""
    return sorted(
        module for module in modules
        if any(module == name or module.startswith(f"{name}.")
               for name in FORBIDDEN)
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


def test_warm_cli_run_loads_no_heavy_layer(tmp_path):
    args = ("--backend", "inline", "--cache-dir", str(tmp_path / "cache"),
            "bench", "gsm_encode", "--coding", "mom")
    _modules, cold = _fresh(tmp_path, _CLI, *args)
    assert "simulations=1" in cold.stderr
    modules, warm = _fresh(tmp_path, _CLI, *args)
    assert "simulations=0" in warm.stderr
    assert warm.stdout == cold.stdout
    assert forbidden(modules) == []


def test_run_table3_loads_no_numpy(tmp_path):
    modules, proc = _fresh(tmp_path, _CLI, "--cache-dir",
                           str(tmp_path / "cache"), "run", "table3")
    assert "Register file areas" in proc.stdout
    assert "numpy" not in modules


def test_every_package_export_resolves(tmp_path):
    code = """
import importlib
packages = ("repro", "repro.isa", "repro.timing", "repro.service",
            "repro.workloads", "repro.engine")
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

    from repro.engine.cache import code_version

    real_version = metadata.version
    code_version.cache_clear()
    try:
        current = code_version()
        monkeypatch.setattr(
            metadata, "version",
            lambda name: "0.0.0" if name == "numpy"
            else real_version(name))
        code_version.cache_clear()
        assert code_version() != current
    finally:
        monkeypatch.undo()
        code_version.cache_clear()
    assert code_version() == current

    code = ("from repro.engine.cache import code_version\n"
            "import sys\nprint(code_version())\n"
            "assert 'numpy' not in sys.modules\n")
    fresh = [_fresh(tmp_path, code)[1].stdout.strip() for _ in range(2)]
    assert fresh == [current, current]


if __name__ == "__main__":
    found = forbidden(importtime_modules(Path(sys.argv[1]).read_text()))
    for module in found:
        print(f"forbidden import: {module}")
    sys.exit(1 if found else 0)
