"""Tests for the report tables and the command-line interface."""

import pytest

from repro.cli import main
from repro.harness.tables import Table


# --- Table -------------------------------------------------------------------


def test_table_render_alignment():
    table = Table(["name", "value"], title="T")
    table.add_row("a", 1)
    table.add_row("long-name", 2.5)
    text = table.render()
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert lines[2].startswith("---")
    assert len({len(line) for line in lines[1:3]}) == 1  # aligned


def test_table_float_formatting():
    table = Table(["x"])
    table.add_row(1.23456)
    assert "1.23" in table.render()
    assert "1.2345" not in table.render()


def test_table_column_and_cell():
    table = Table(["bench", "a", "b"])
    table.add_row("x", 1, 2)
    table.add_row("y", 3, 4)
    assert table.column("a") == [1, 3]
    assert table.cell("y", "b") == 4
    with pytest.raises(KeyError):
        table.cell("z", "b")
    with pytest.raises(ValueError):
        table.column("missing")


# --- CLI --------------------------------------------------------------------


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig9" in out and "table3" in out
    assert "mpeg2_encode" in out


def test_cli_run_table3(capsys):
    assert main(["run", "table3"]) == 0
    out = capsys.readouterr().out
    assert "2826240" in out and "exact" in out


def test_cli_run_unknown_experiment(capsys):
    assert main(["run", "fig99"]) == 1
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_bench(capsys):
    assert main(["bench", "gsm_encode", "--coding", "mom3d"]) == 0
    out = capsys.readouterr().out
    assert "L2 activity" in out
    assert "gsm_encode" in out


def test_cli_bench_rejects_bad_name():
    with pytest.raises(SystemExit):
        main(["bench", "not_a_benchmark"])


def test_cli_sweep_timing_model_axis(capsys):
    """String-valued --set overrides (timing_model) sweep both models
    and report identical schedules."""
    assert main(["sweep", "-b", "gsm_encode", "-c", "mom",
                 "-m", "vector", "--set", "timing_model=reference,batched",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if "timing_model=" in line]
    assert len(rows) == 2
    # the two models' cycle/IPC/bandwidth columns must agree exactly
    assert rows[0].split()[1:] == rows[1].split()[1:]


def test_cli_sweep_rejects_unknown_timing_model(capsys):
    assert main(["sweep", "-b", "gsm_encode", "-c", "mom", "-m",
                 "vector", "--set", "timing_model=bogus",
                 "--no-cache"]) == 2
    assert "unknown timing model" in capsys.readouterr().err


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


# --- cache management --------------------------------------------------------


def test_cli_cache_ls_stat_gc(tmp_path, capsys, monkeypatch, closes):
    from repro.engine import ResultCache, RunSpec
    from repro.timing import RunStats

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["cache", "stat"]) == 0
    assert "empty" in capsys.readouterr().out

    # populate the active version, fake a superseded one
    assert main(["bench", "gsm_encode", "--coding", "mom",
                 "--memsys", "ideal"]) == 0
    capsys.readouterr()
    stale = tmp_path / "0123456789abcdef"
    closes(ResultCache(tmp_path, version=stale.name)).put(
        RunSpec("gsm_encode", "mom3d", "ideal"), RunStats(name="stale"))

    assert main(["cache", "ls"]) == 0
    out = capsys.readouterr().out
    assert "(active)" in out
    assert "gsm_encode/mom/ideal" in out
    assert "0123456789abcdef" in out

    assert main(["cache", "stat"]) == 0
    out = capsys.readouterr().out
    assert "active" in out and "superseded" in out

    # --dry-run reports the same totals but touches nothing
    assert main(["cache", "gc", "--dry-run"]) == 0
    assert "would remove 1 records" in capsys.readouterr().out
    assert stale.exists()
    assert main(["cache", "ls", "--dry-run"]) == 2
    assert "--dry-run" in capsys.readouterr().err

    assert main(["cache", "gc"]) == 0
    assert "removed 1 records" in capsys.readouterr().out
    assert not stale.exists()

    # the active version survives gc: a rerun must not simulate
    assert main(["bench", "gsm_encode", "--coding", "mom",
                 "--memsys", "ideal"]) == 0
    assert "simulations=0" in capsys.readouterr().err


# --- service submit ----------------------------------------------------------


def test_cli_submit_against_live_service(capsys):
    from repro.engine import Engine
    from repro.service import background_server

    engine = Engine(use_cache=False)
    with background_server(engine) as server:
        assert main(["submit", "-b", "gsm_encode", "-c", "mom",
                     "-m", "ideal", "--url", server.url]) == 0
    captured = capsys.readouterr()
    assert "gsm_encode/mom/ideal" in captured.out
    assert "[service]" in captured.err
    assert "simulations=1" in captured.err


def test_cli_worker_rejects_remote_backend(capsys):
    assert main(["worker", "--backend", "remote"]) == 2
    assert "locally" in capsys.readouterr().err


def test_cli_refuses_remote_backend_outside_serve(capsys):
    """Workers reach a remote work queue only through serve's listener,
    so every other command refuses the backend, with one message."""
    messages = set()
    for argv in (["list"], ["tables"], ["run", "fig3"], ["sweep"],
                 ["explore"], ["bench", "gsm_encode"], ["report"],
                 ["trace", "gsm_encode", "mmx", "-o", "t.bin"],
                 ["replay", "t.bin"], ["submit"], ["worker"],
                 ["cache", "ls"]):
        assert main(["--backend", "remote", *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        messages.add(captured.err)
    assert len(messages) == 1
    assert "only under 'repro serve'" in messages.pop()


def test_cli_refuses_jobs_on_serve_and_worker(capsys, monkeypatch):
    """Neither service command ever pools (serve's executor threads
    never fork; a worker's leased shard holds one trace), so both
    refuse ``--jobs``, before or after the subcommand, with one
    message."""
    from repro import cli

    # an accepted command returns at once instead of serving
    monkeypatch.setattr(cli, "_cmd_serve", lambda args: 0)
    monkeypatch.setattr(cli, "_cmd_worker", lambda args: 0)
    messages = set()
    for argv in (["--jobs", "2", "serve"], ["serve", "--jobs", "2"],
                 ["--jobs", "2", "worker"], ["worker", "--jobs", "2"],
                 ["-j", "1", "serve", "--backend", "remote"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        messages.add(captured.err)
    assert len(messages) == 1
    assert "--jobs" in messages.pop()


def test_cli_worker_gives_up_when_idle(capsys):
    assert main(["worker", "--url", "http://127.0.0.1:1",
                 "--max-idle", "0.2", "--no-cache"]) == 0
    err = capsys.readouterr().err
    # the budget is spent in full: the first refusal waits out the
    # remaining 0.2s (backoff clamped to the budget), the second ends
    # the loop — two error polls, not one
    assert "[worker]" in err and "errors=2" in err


def test_cli_worker_fails_fast_without_work_queue(capsys):
    from repro.engine import Engine
    from repro.service import background_server

    with background_server(Engine(use_cache=False)) as server:
        assert main(["worker", "--url", server.url,
                     "--max-idle", "5", "--no-cache"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "repro serve --backend remote" in err


def test_cli_has_no_cache_layout_or_migrate(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--cache-layout", "file", "list"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["list", "--cache-layout", "file"])
    assert exc.value.code == 2
    assert "--cache-layout" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["cache", "migrate"])
    assert exc.value.code == 2
    assert "migrate" in capsys.readouterr().err


def test_cli_backends_are_inline_and_remote(capsys):
    """One local backend, the default, whose width is ``--jobs``."""
    from repro.cli import parse_args

    assert parse_args(["tables"]).backend == "inline"
    assert parse_args(["--backend", "remote", "serve"]).backend == "remote"
    with pytest.raises(SystemExit) as exc:
        parse_args(["--backend", "process", "tables"])
    assert exc.value.code == 2
    assert "invalid choice: 'process'" in capsys.readouterr().err


def test_cli_rejects_non_positive_jobs(capsys):
    with pytest.raises(SystemExit):
        main(["--jobs", "0", "list"])
    assert "positive" in capsys.readouterr().err


def test_cli_rejects_bad_backend_tuning(capsys):
    with pytest.raises(SystemExit):
        main(["--lease-ttl", "0", "list"])
    assert "positive" in capsys.readouterr().err


def test_cli_submit_unreachable_service(capsys):
    assert main(["submit", "-b", "gsm_encode", "-c", "mom",
                 "-m", "ideal", "--url",
                 "http://127.0.0.1:1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_submit_rejects_bad_url(capsys):
    assert main(["submit", "-b", "gsm_encode", "-c", "mom",
                 "-m", "ideal", "--url",
                 "https://127.0.0.1:9"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_exits_quietly_when_stdout_reader_is_gone():
    """``repro list | head -1``: a reader that exits before the command
    writes gets no traceback on stderr, just exit status 1."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "list"], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(src)})
    proc.stdout.close()  # long before the child has imported repro.cli
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr
    assert stderr == ""


# --- how ``python -m repro`` ends a command ------------------------------------


def _repro(*args, pythonpath=(), launcher=("-m", "repro")):
    """Run ``python -m repro ARGS`` (or another launcher) to completion."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join([*map(str, pythonpath), str(src)])
    return subprocess.run([sys.executable, *launcher, *map(str, args)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


def test_one_shot_predicate():
    from repro.cli import is_one_shot, parse_args

    # a non-serve command on the remote backend is refused at once
    for argv in (["tables"], ["list"], ["run", "fig3"],
                 ["--jobs", "2", "tables"],
                 ["--backend", "inline", "sweep", "-b", "gsm_encode"],
                 ["trace", "gsm_encode", "mmx", "-o", "t.bin"],
                 ["--backend", "remote", "tables"],
                 ["tables", "--backend", "remote"]):
        assert is_one_shot(parse_args(argv)), argv
    for argv in (["serve"], ["worker"],
                 ["serve", "--backend", "remote"]):
        assert not is_one_shot(parse_args(argv)), argv


def test_the_usable_cores_are_the_one_default_width(monkeypatch,
                                                    tmp_path):
    """Every engine defaults to the usable cores: ``Engine()``,
    ``Runner()``, ``InlineBackend()``, every engine command, ``serve``
    and ``worker`` included, and the engines ``ServiceServer()`` and
    ``ServiceWorker()`` build.  An explicit ``--jobs`` or ``jobs=``,
    before or after the subcommand, wins."""
    import asyncio
    import os

    from repro.cli import _runner, parse_args
    from repro.engine import Engine, InlineBackend, make_backend
    from repro.harness import Runner
    from repro.service import ServiceServer, ServiceWorker

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

    def backend(*argv):
        with _runner(parse_args(["--no-cache", *argv])) as runner:
            return runner.engine.backend

    for argv in (["tables"], ["all"], ["run", "fig3"], ["report"],
                 ["sweep"], ["explore"], ["replay", "t.bin"],
                 ["bench", "gsm_encode"]):
        assert backend(*argv).jobs == 3, argv
        assert backend("--jobs", "1", *argv).jobs == 1, argv
        assert backend(*argv, "--jobs", "2").jobs == 2, argv
    for argv in (["serve"], ["worker"]):
        assert backend(*argv).jobs == 3, argv
    assert backend("serve", "--backend", "remote").name == "remote"

    for engine in (Engine(use_cache=False),
                   Runner(use_cache=False).engine):
        assert engine.backend.jobs == 3
        engine.close()
    assert InlineBackend().jobs == make_backend("inline").jobs == 3
    for engine in (Engine(use_cache=False, jobs=2),
                   Runner(use_cache=False, jobs=2).engine):
        assert engine.backend.jobs == 2
        engine.close()
    assert InlineBackend(jobs=2).jobs == 2

    server = ServiceServer()
    worker = ServiceWorker("http://127.0.0.1:9")
    try:
        assert server.engine.backend.jobs == 3
        assert worker.engine.backend.jobs == 3
    finally:
        asyncio.run(server.close())
        server.engine.close()
        worker.client.close()
        worker.engine.close()


class MonitoringStub:
    """``sys.monitoring`` with the given tool ids registered."""

    def __init__(self, tools):
        self.tools = tools

    def get_tool(self, tool_id):
        return self.tools.get(tool_id)


def test_traced_predicate_sees_monitoring_tools(monkeypatch):
    """From Python 3.12 cProfile registers as ``sys.monitoring`` tool 2
    and sets no profile function; it must still keep the normal exit."""
    import sys

    from repro.cli import is_traced

    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    monkeypatch.delattr(sys, "monitoring", raising=False)
    assert not is_traced()
    monkeypatch.setattr(sys, "monitoring", MonitoringStub({}),
                        raising=False)
    assert not is_traced()
    monkeypatch.setattr(sys, "monitoring",
                        MonitoringStub({2: "cProfile"}))
    assert is_traced()
    monkeypatch.setattr(sys, "getprofile", lambda: print)
    monkeypatch.setattr(sys, "monitoring", MonitoringStub({}))
    assert is_traced()


def test_one_shot_command_skips_interpreter_teardown(tmp_path):
    """An ``atexit`` hook runs only where the command keeps the normal
    exit: here a ``worker``, which runs until its idle budget is
    spent."""
    marker = tmp_path / "teardown-ran"
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit\n"
        f"atexit.register(lambda: open({str(marker)!r}, 'w').close())\n",
        encoding="utf-8")
    fast = _repro("list", pythonpath=[tmp_path])
    assert fast.returncode == 0
    assert "experiments:" in fast.stdout
    assert not marker.exists()
    normal = _repro("worker", "--url", "http://127.0.0.1:1",
                    "--max-idle", "0.2", "--no-cache",
                    pythonpath=[tmp_path])
    assert normal.returncode == 0, normal.stderr
    assert "[worker]" in normal.stderr
    assert marker.exists()


_GC_PROBE = """
import gc, runpy, sys
import repro.cli as cli

def probe(args):
    print("gc enabled:", gc.isenabled())
    return 0

cli._cmd_list = cli._cmd_serve = cli._cmd_worker = probe
sys.argv = ["repro", *sys.argv[1:]]
runpy.run_module("repro", run_name="__main__")
"""


def test_only_one_shot_commands_run_without_the_cyclic_gc():
    """``python -m repro`` turns the cyclic GC off for a one-shot
    command; the long-running ones keep it, and ``cli.main`` called
    in-process leaves it alone."""
    import gc

    for argv, enabled in ((["list"], False), (["serve"], True),
                          (["worker"], True),
                          (["--backend", "remote", "serve"], True)):
        proc = _repro(*argv, launcher=("-c", _GC_PROBE))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"gc enabled: {enabled}\n", argv
    assert gc.isenabled()
    assert main(["list"]) == 0
    assert gc.isenabled()


def test_trace_file_is_complete_after_a_fast_exit(tmp_path):
    from repro.workloads import get_benchmark

    path = tmp_path / "gsm.bin"
    wrote = _repro("trace", "gsm_encode", "mmx", "-o", path)
    assert wrote.returncode == 0, wrote.stderr
    assert wrote.stdout == \
        f"wrote {path} ({path.stat().st_size} bytes)\n"
    replay = _repro("--backend", "inline", "--cache-dir", tmp_path / "c",
                    "replay", path, "--coding", "mmx")
    assert replay.returncode == 0, replay.stderr
    program = get_benchmark("gsm_encode").build("mmx").program
    assert f" {len(program)} insts " in replay.stdout
    assert "[engine] simulations=1 " in replay.stderr


def test_fast_exit_keeps_exit_status():
    unknown = _repro("run", "nosuch")
    assert unknown.returncode == 1
    assert "unknown experiment(s): nosuch" in unknown.stderr
    config = _repro("sweep", "-b", "gsm_encode", "-c", "mom", "-m",
                    "vector", "--set", "timing_model=bogus", "--no-cache")
    assert config.returncode == 2
    assert config.stderr.startswith("error: ")
    assert "unknown timing model" in config.stderr


def test_profiled_command_still_reports():
    """``python -m cProfile -m repro ...`` prints its table at exit, so
    a profiled command must not skip the interpreter's exit."""
    proc = _repro("list", launcher=("-m", "cProfile", "-m", "repro"))
    assert proc.returncode == 0, proc.stderr
    assert "experiments:" in proc.stdout
    assert "function calls" in proc.stdout
    assert "Ordered by" in proc.stdout
