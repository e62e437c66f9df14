"""Launcher for the traced run of the end-to-end benchmark.

    traced.py --spans OUT.json repro ARGS...    # a `python -m repro` command
    traced.py --spans OUT.json child ARGS...    # a child.py command

Times ``import repro.cli`` as the ``cli.import`` span, wraps the public
functions in :data:`TARGETS` -- each patched where its caller looks the
name up, so ``timing.decode`` is ``repro.timing.batched.decode`` and
``repro.timing.grid.decode`` -- runs the command under a ``cli.main``
span, and writes every span to OUT.json at exit.  Nothing under
``src/`` is modified.  A SIGTERM that the command does not handle
itself (``repro serve`` drains on it) exits through ``SystemExit`` so
the spans are still written.
"""

from __future__ import annotations

import time

#: when this launcher began running; the parent measures from spawn
STARTED = time.perf_counter()

import atexit  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from child import SIM_FIELDS  # noqa: E402
from spans import Tracer  # noqa: E402

#: (span name, module, attribute path) of every wrapped function
TARGETS = (
    ("engine.run", "repro.engine", "Engine.run"),
    ("engine.run", "repro.engine", "Engine.run_many"),
    ("engine.lookup", "repro.engine.cache", "ResultCache.get"),
    ("engine.lookup", "repro.engine.cache", "ResultCache.get_many"),
    ("engine.admit", "repro.engine.cache", "ResultCache.put"),
    ("engine.admit", "repro.engine.cache", "ResultCache.put_many"),
    ("engine.execute", "repro.engine.backends.inline",
     "InlineBackend.execute"),
    ("engine.execute", "repro.engine.backends.remote",
     "RemoteBackend.execute"),
    ("workloads.lookup", "repro.engine.parallel", "build_workload"),
    ("workloads.lookup", "repro.engine", "build_workload"),
    ("workloads.build", "repro.workloads.base", "Benchmark.build"),
    ("compiler.analysis", "repro.compiler.pipeline", "run"),
    ("timing.decode", "repro.timing.batched", "decode"),
    ("timing.decode", "repro.timing.grid", "decode"),
    ("timing.prime", "repro.timing.batched", "primed_layout"),
    ("timing.prime", "repro.timing.batched", "prime_from_layout"),
    ("timing.prime", "repro.timing.grid", "primed_layout"),
    ("timing.prime", "repro.timing.grid", "prime_from_layout"),
)
#: wrapped only in ``repro serve`` / ``repro worker`` processes, which
#: import the service package anyway
SERVICE_TARGETS = (
    ("server.handler", "repro.service.server",
     "ServiceServer._handle_connection"),
    ("schema.codec", "repro.service.server", "work_lease_request_from_wire"),
    ("schema.codec", "repro.service.schema", "JobRequest.from_wire"),
    ("schema.codec", "repro.service.schema", "JobResult.to_wire"),
    ("schema.codec", "repro.service.schema", "WorkLeaseGrant.to_wire"),
    ("schema.codec", "repro.service.schema", "WorkLeaseGrant.from_wire"),
    ("schema.codec", "repro.service.schema", "WorkCompletion.to_wire"),
    ("schema.codec", "repro.service.schema", "WorkCompletion.from_wire"),
    ("schema.codec", "repro.service.schema", "CacheQueryReply.to_wire"),
)


def _sim_attrs(stats_list) -> dict:
    attrs = {"sims": len(stats_list)}
    for field in SIM_FIELDS:
        attrs[field] = sum(getattr(stats, field) for stats in stats_list)
    return attrs


def install(tracer: Tracer, service: bool, engines: list) -> None:
    """Wrap every target (and the experiments, and the pipelines)."""
    from repro.harness.experiments import EXPERIMENTS

    for name, module, path in TARGETS + (SERVICE_TARGETS if service
                                         else ()):
        tracer.install_path(name, module, path)
    tracer.install_path("timing.schedule", "repro.timing.batched",
                        "BatchedPipeline.run",
                        lambda stats, _args: _sim_attrs([stats]))
    tracer.install_path("timing.schedule", "repro.timing.grid",
                        "GridPipeline.run",
                        lambda stats, _args: {**_sim_attrs(stats),
                                              "grid_specs": len(stats)})
    tracer.install_path("engine.init", "repro.engine", "Engine.__init__",
                        lambda _none, args: engines.append(args[0]) or {})
    for key in list(EXPERIMENTS):
        tracer.install(EXPERIMENTS, key, "harness.experiment")


def engine_counters(engines) -> dict:
    """EngineStats summed over the process's engines, plus store size."""
    out = {"simulations": 0, "memo_hits": 0, "disk_hits": 0, "stores": 0,
           "store_bytes": 0}
    for engine in engines:
        stats = engine.stats.to_dict()
        for key in ("simulations", "memo_hits", "disk_hits", "stores"):
            out[key] += stats[key]
        if engine.cache is not None:
            out["store_bytes"] += engine.cache.store_metrics()["bytes"]
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans" or \
            argv[2] not in ("repro", "child"):
        print(__doc__, file=sys.stderr)
        return 2
    out, target, args = argv[1], argv[2], argv[3:]
    role = "child" if target == "child" else next(
        (arg for arg in args if arg in ("tables", "serve", "worker")),
        "repro")
    tracer = Tracer()
    engines: list = []
    atexit.register(lambda: tracer.dump(
        out, role=role, started=STARTED, engines=engine_counters(engines)))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    with tracer.span("cli.import"):
        import repro.cli
        if role in ("serve", "worker"):
            import repro.service  # noqa: F401
    install(tracer, role in ("serve", "worker"), engines)
    with tracer.span("cli.main"):
        if target == "child":
            import child
            return child.main(args)
        return repro.cli.main(args)


if __name__ == "__main__":
    sys.exit(main())
