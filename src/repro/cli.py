"""Command-line interface: ``python -m repro``.

Subcommands:

* ``list`` — show available experiments and benchmarks.
* ``run <experiment-id> [...]`` — run specific experiments (e.g.
  ``fig9 table4``) and print the paper-style tables.
* ``all`` / ``tables`` — run the full evaluation suite.
* ``bench <name> [--coding C] [--memsys M]`` — simulate one benchmark
  configuration and print its statistics.
* ``sweep`` — expand a declarative grid (benchmarks x codings x memory
  systems x latencies x ``--set`` overrides) and print one row per
  simulation point.
* ``explore`` — design-space search: the Pareto frontier over slowdown
  x L2 power x register-file area, or an epsilon-constraint query such
  as ``--within 5`` ("cheapest area within 5% of the best slowdown").
  Successive-halving pruning and ``--budget`` proposals decide which
  grid points are actually simulated.  The search runs here; with
  ``--url`` each of its rungs is one ``/v1/jobs`` job on a ``repro
  serve`` instance instead of a local engine call.  See
  ``docs/explore.md``.
* ``report -o results.md`` — regenerate the full measured-results
  document.
* ``trace <name> <coding> -o trace.bin`` / ``replay trace.bin`` — save
  a workload's instruction trace (ATOM-style) and re-time it later.
  Replays route through the engine: results are content-addressed by
  the trace bytes (cached like any grid point) and ``--set`` override
  axes are honored.
* ``serve`` — host the job service: an asyncio HTTP server exposing
  this engine's ``run_many``/``sweep``, one dispatch per job with
  in-flight dedup (see ``docs/service.md``), plus a Prometheus text
  exposition on ``GET /v1/metrics`` (latency histograms, queue depth,
  lease ages, fleet health).  With ``--backend remote`` it also
  serves the ``/v1/work/*`` pull endpoints for ``repro worker``
  processes; no other command runs that backend.
* ``submit`` — run a declarative grid on a ``repro serve`` instance
  through the client SDK (same axes flags as ``sweep``).
* ``worker`` — attach to a remote-backend service and execute leased
  shards on this machine's engine (see ``docs/backends.md``).
* ``cache {ls,stat,gc [--dry-run],query}`` — inspect the persistent
  result cache per code version, garbage-collect superseded versions
  (compacting the active segments), and bulk-query stored results by
  spec fields (locally or against a running service via ``--url``).

Engine flags (accepted before or after the subcommand):

* ``--jobs N`` — shard uncached simulations across N processes (the
  remote backend: into at least N shards).
* ``--backend {inline,remote}`` — where uncached simulations execute:
  on this machine (the default; serially at one job, over a process
  pool at more), or on pull-based ``repro worker`` processes
  (``serve`` only).
* ``--lease-ttl SECONDS`` — remote backend only: how long a worker
  may hold a shard before it is re-leased.
* ``--cache-dir DIR`` — persistent result-cache location (default
  ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``); each code version's
  results live there in append-only segment files, which every open
  scans (see ``docs/store.md``).
* ``--no-cache`` — disable the persistent cache for this invocation.

Commands that simulate print an ``[engine] simulations=...`` summary
line to stderr; a warm-cache rerun reports ``simulations=0``.
``submit`` prints the *server's* counters as ``[service] ...`` instead,
and ``worker`` prints its loop counters as ``[worker] ...``.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro.engine.keys import MEMSYS_KINDS as _MEMSYS_CHOICES
from repro.errors import ConfigError
from repro.harness import EXPERIMENTS, Runner, run_all
from repro.workloads import CODINGS, benchmark_names


@contextlib.contextmanager
def _runner(args):
    """The command's runner; its engine closes when the command ends."""
    from repro.engine import make_backend

    runner = Runner(seed=args.seed, cache_dir=args.cache_dir,
                    use_cache=not args.no_cache,
                    backend=make_backend(args.backend, jobs=args.jobs,
                                         lease_ttl=args.lease_ttl))
    try:
        yield runner
    finally:
        runner.engine.close()


def _print_engine_summary(runner: Runner) -> None:
    print(f"[engine] {runner.engine.stats.summary()}", file=sys.stderr)


def _cmd_list(_args) -> int:
    print("experiments:")
    for exp_id, func in EXPERIMENTS.items():
        doc = (func.__doc__ or "").strip().splitlines()[0]
        print(f"  {exp_id:8s} {doc}")
    print("benchmarks:")
    for name in benchmark_names():
        print(f"  {name}")
    print(f"codings: {', '.join(CODINGS)}")
    from repro.explore import OBJECTIVE_NAMES

    print("explore objectives (repro explore): "
          f"{', '.join(OBJECTIVE_NAMES)}")
    return 0


def _cmd_run(args) -> int:
    unknown = [e for e in args.experiments if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 1
    with _runner(args) as runner:
        for exp_id in args.experiments:
            print(EXPERIMENTS[exp_id](runner).render())
            print()
    _print_engine_summary(runner)
    return 0


def _cmd_all(args) -> int:
    with _runner(args) as runner:
        for result in run_all(runner):
            print(result.render())
            print()
    _print_engine_summary(runner)
    return 0


def _cmd_bench(args) -> int:
    with _runner(args) as runner:
        stats = runner.run(args.name, args.coding, args.memsys,
                           args.l2_latency)
    print(stats.summary())
    print(f"  L2 activity:        {stats.l2_activity}")
    print(f"  words moved:        {stats.cache_words}")
    print(f"  3D RF words served: {stats.rf3d_words}")
    print(f"  L2 hit rate:        {stats.l2_hit_rate:.3f}")
    veclen = stats.veclen
    print(f"  vector length dims: {veclen.dim1:.1f} / {veclen.dim2:.1f}"
          f" / {veclen.dim3:.1f} (max {veclen.max_slices_per_load})")
    _print_engine_summary(runner)
    return 0


def _parse_set(value: str) -> tuple[str, list]:
    """Parse one ``--set field=v1,v2,...`` axis definition.

    Every overridable config field is numeric, so non-numeric tokens
    are rejected up front (they would otherwise surface much later as
    a mid-simulation type error).
    """
    if "=" not in value:
        raise argparse.ArgumentTypeError(
            f"--set expects FIELD=VALUE[,VALUE...], got {value!r}")
    name, _, raw = value.partition("=")
    values = []
    for token in raw.split(","):
        token = token.strip()
        try:
            values.append(int(token))
        except ValueError:
            try:
                values.append(float(token))
            except ValueError:
                if not token:
                    raise argparse.ArgumentTypeError(
                        f"--set {name}: empty value") from None
                # non-numeric overrides (e.g. timing_model=reference)
                # pass through as strings; the engine validates them
                values.append(token)
    if not values:
        raise argparse.ArgumentTypeError(f"--set {name} has no values")
    return name.strip(), values


def _merge_set_axes(axes: list[tuple[str, list]]) -> dict[str, list]:
    """Combine repeated ``--set`` flags; same field extends its axis."""
    merged: dict[str, list] = {}
    for name, values in axes:
        bucket = merged.setdefault(name, [])
        bucket.extend(v for v in values if v not in bucket)
    return merged


def _results_table(results, title: str):
    """The sweep/submit/replay result table (one row per spec)."""
    from repro.harness.tables import Table

    table = Table(["spec", "cycles", "IPC", "eff bw", "L2 activity",
                   "words"], title=title)
    for spec, stats in results.items():
        table.add_row(spec.label(), stats.cycles, stats.ipc,
                      stats.effective_bandwidth, stats.l2_activity,
                      stats.cache_words)
    return table


def _sweep_from_args(args):
    from repro.engine import Sweep, axes_product

    overrides = (axes_product(**_merge_set_axes(args.set))
                 if args.set else [{}])
    return Sweep(benchmarks=args.benchmarks, codings=args.codings,
                 memsystems=args.memsys, l2_latencies=args.l2_latency,
                 overrides=overrides, warm=not args.cold,
                 seed=args.seed)


def _cmd_sweep(args) -> int:
    sweep = _sweep_from_args(args)
    with _runner(args) as runner:
        results = runner.engine.run_many(sweep.specs())
    print(_results_table(
        results, f"sweep over {len(results)} configurations").render())
    _print_engine_summary(runner)
    return 0


def _explore_table(frontier, best, minimize):
    """The frontier table; ``*`` marks the constrained optimum."""
    from repro.harness.tables import Table

    table = Table(["config", "slowdown", "L2 watts", "area tracks"],
                  title=f"Pareto frontier ({len(frontier)} "
                        f"non-dominated, * = best {minimize})")
    for record in frontier:
        label = record.candidate.label()
        if best is not None and record.candidate == best.candidate:
            label = "* " + label
        objectives = record.objectives
        table.add_row(label, objectives.slowdown, objectives.l2_watts,
                      objectives.area_tracks)
    return table


def _explore_query_from_args(args):
    from repro.engine import axes_product
    from repro.explore import Constraint, ExploreQuery

    constraint = None
    if args.within is not None:
        constraint = Constraint(args.constraint,
                                within=args.within / 100.0)
    elif args.limit is not None:
        constraint = Constraint(args.constraint, limit=args.limit)
    overrides = (axes_product(**_merge_set_axes(args.set))
                 if args.set else [{}])
    return ExploreQuery(
        codings=tuple(args.codings), memsystems=tuple(args.memsys),
        l2_latencies=tuple(args.l2_latency),
        overrides=tuple(overrides),
        benchmarks=tuple(args.benchmarks), warm=not args.cold,
        seed=args.seed, constraint=constraint,
        minimize=args.minimize, budget=args.budget,
        prune=not args.no_prune, rung_fraction=args.rung_fraction,
        margin=args.margin, proposal_seed=args.proposal_seed)


def _cmd_explore(args) -> int:
    if args.within is not None and args.limit is not None:
        print("error: --within and --limit are mutually exclusive",
              file=sys.stderr)
        return 2
    query = _explore_query_from_args(args)
    runner = None
    if args.url is not None:
        import time
        from contextlib import closing

        from repro.explore import Exploration
        from repro.service import ServiceClient, ServiceError

        # the search runs here, each rung one job on the service;
        # --timeout bounds the whole query, not each job
        deadline = time.monotonic() + args.timeout
        try:
            with closing(ServiceClient(args.url)) as client:
                report = Exploration(query).run(
                    lambda specs: client.run_many(specs, timeout=max(
                        0.0, deadline - time.monotonic())))
        except (ServiceError, TimeoutError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        from repro.explore import explore

        with _runner(args) as runner:
            report = explore(runner.engine, query)
    best = report.best
    print(_explore_table(report.frontier, best, query.minimize).render())
    if query.constraint is not None:
        if best is None:
            print(f"no candidate satisfies "
                  f"{query.constraint.objective} <= bound")
        else:
            print(f"best {query.minimize} with "
                  f"{query.constraint.objective} <= {report.bound:.4f}: "
                  f"{best.candidate.label()}")
    print(f"[explore] {report.stats.summary()}", file=sys.stderr)
    if runner is not None:
        _print_engine_summary(runner)
    return 0


def _cmd_report(args) -> int:
    from repro.harness.report import write_report

    with _runner(args) as runner:
        write_report(args.output, runner)
    print(f"wrote {args.output}")
    _print_engine_summary(runner)
    return 0


def _cmd_trace(args) -> int:
    from repro.harness.traceio import export_workload

    nbytes = export_workload(args.name, args.coding, args.output,
                             seed=args.seed)
    print(f"wrote {args.output} ({nbytes} bytes)")
    return 0


def _cmd_replay(args) -> int:
    from repro.engine import RunSpec, axes_product, register_trace

    benchmark = register_trace(args.trace)
    overrides = (axes_product(**_merge_set_axes(args.set))
                 if args.set else [{}])
    # seed pinned to 0: the trace bytes fix the program, so replays of
    # the same content must share one cache entry regardless of --seed
    specs = [RunSpec(benchmark=benchmark, coding=args.coding,
                     memsys=args.memsys, l2_latency=args.l2_latency,
                     warm=not args.cold, seed=0,
                     overrides=tuple(over.items()))
             for over in overrides]
    with _runner(args) as runner:
        results = runner.engine.run_many(specs)
    if len(results) == 1:
        (stats,) = results.values()
        print(stats.summary())
    else:
        print(_results_table(
            results,
            f"replay of {args.trace} over {len(results)} "
            f"configurations").render())
    _print_engine_summary(runner)
    return 0


def _cmd_serve(args) -> int:
    from repro.service import serve

    with _runner(args) as runner:
        serve(runner.engine, host=args.host, port=args.port,
              max_workers=args.workers, max_jobs=args.max_jobs,
              drain_grace=args.drain_grace,
              announce=lambda url: print(f"[service] listening on {url}",
                                         file=sys.stderr))
    return 0


def _cmd_submit(args) -> int:
    from contextlib import closing

    from repro.service import ServiceClient, ServiceError

    sweep = _sweep_from_args(args)
    try:
        with closing(ServiceClient(args.url)) as client:
            results = client.sweep(sweep, timeout=args.timeout)
            stats = client.stats()
    except (ServiceError, TimeoutError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_results_table(
        results,
        f"submitted {len(results)} configurations to "
        f"{args.url}").render())
    engine = stats["engine"]
    scheduler = stats["scheduler"]
    print("[service] " +
          " ".join(f"{k}={v}" for k, v in engine.items()) + " | " +
          " ".join(f"{k}={v}" for k, v in scheduler.items()),
          file=sys.stderr)
    return 0


def _cmd_worker(args) -> int:
    from repro.service import ServiceError, work

    with _runner(args) as runner:
        try:
            stats = work(
                args.url, runner.engine, worker_id=args.worker_id,
                poll_interval=args.poll_interval, max_idle=args.max_idle,
                max_shards=args.max_shards,
                announce=lambda wid: print(
                    f"[worker] {wid} polling {args.url}",
                    file=sys.stderr))
        except (ServiceError, TimeoutError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(f"[worker] {stats.summary()}", file=sys.stderr)
    _print_engine_summary(runner)
    return 0


def _cmd_cache(args) -> int:
    from datetime import datetime

    from repro.engine import ResultCache

    if args.dry_run and args.action != "gc":
        print("error: --dry-run only applies to 'cache gc'",
              file=sys.stderr)
        return 2
    if args.action == "query":
        return _cache_query(args)
    cache = ResultCache(args.cache_dir)
    versions = cache.versions()
    if args.action == "gc":
        from repro.engine.store import CorruptFrameError

        stale = [v for v in versions if v != cache.version]
        try:
            removed, reclaimed = cache.gc(dry_run=args.dry_run)
        except CorruptFrameError as exc:
            print(f"error: {exc}", file=sys.stderr)
            for digest, sidecar in exc.quarantined:
                where = sidecar if sidecar is not None \
                    else "(quarantine write failed)"
                print(f"  {digest[:12]} -> {where}", file=sys.stderr)
            print("the remaining store is compacted and consistent; "
                  "rerun the affected specs to recompute the lost "
                  "records", file=sys.stderr)
            return 1
        verb = "would remove" if args.dry_run else "removed"
        print(f"{verb} {removed} records ({reclaimed / 1024:.1f} KiB) "
              f"across {len(stale)} superseded version(s) + active "
              f"compaction")
        return 0
    if not versions:
        print(f"cache at {cache.root} is empty")
        return 0
    if args.action == "stat":
        from repro.harness.tables import Table

        table = Table(["version", "entries", "KiB", "segments",
                       "status"],
                      title=f"result cache at {cache.root}")
        for version in versions:
            info = cache.stat(version)
            table.add_row(version, info["entries"],
                          info["bytes"] / 1024, info["segments"],
                          "active" if version == cache.version
                          else "superseded")
        print(table.render())
        return 0
    # ls: every entry, grouped by code version
    for version in versions:
        marker = " (active)" if version == cache.version else ""
        entries = cache.entries(version)
        print(f"{version}{marker}: {len(entries)} entries")
        for entry in entries:
            when = datetime.fromtimestamp(entry.mtime) \
                .strftime("%Y-%m-%d %H:%M:%S")
            print(f"  {entry.digest[:12]}  {entry.size:7d} B  "
                  f"{when}  {entry.label}")
    return 0


def _cache_query(args) -> int:
    """``repro cache query``: bulk-scan results, locally or remotely."""
    filters = {"benchmark": args.benchmark, "coding": args.coding,
               "memsys": args.memsys, "l2_latency": args.l2_latency}
    filters = {k: v for k, v in filters.items() if v is not None}
    if args.url:
        from contextlib import closing

        from repro.service import ServiceClient, ServiceError

        try:
            with closing(ServiceClient(args.url)) as client:
                reply = client.query_results(version=args.version,
                                             limit=args.limit, **filters)
        except (ServiceError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        rows = reply.results
        suffix = " (truncated)" if reply.truncated else ""
        print(f"{len(rows)} result(s) from {args.url} "
              f"[version {reply.version}]{suffix}")
    else:
        from repro.engine import ResultCache

        cache = ResultCache(args.cache_dir)
        rows = cache.query(version=args.version, limit=args.limit,
                           **filters)
        print(f"{len(rows)} result(s) in {cache.root} "
              f"[version {args.version or cache.version}]")
    for spec, stats in rows:
        print(f"  {spec.label():40s} cycles={stats.cycles:>10d} "
              f"instructions={stats.instructions:>10d}")
    return 0


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {value!r}") from None
    if number <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}")
    return number


def _positive_float(value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {value!r}") from None
    if number <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {value}")
    return number


def _add_engine_options(parser, group) -> None:
    """Declare each engine option once, on both parsers.

    ``parser``, the main parser, takes the real defaults, so the
    options work before the subcommand.  ``group`` belongs to the
    parent of every subparser and takes SUPPRESS defaults, so
    ``repro tables --jobs 4`` works without clobbering the former.
    """
    from repro.engine import BACKEND_NAMES

    for flags, options in (
            (("--seed",),
             {"type": int, "default": 0,
              "help": "workload generation seed (default 0)"}),
            (("--jobs", "-j"),
             {"type": _positive_int, "default": 1, "metavar": "N",
              "help": "processes for uncached simulations (default 1 = "
                      "serially, on this thread); the remote "
                      "backend's shard fan-out"}),
            (("--backend",),
             {"choices": BACKEND_NAMES, "default": "inline",
              "help": "execution backend for uncached simulations "
                      "(default: inline; remote only under serve)"}),
            (("--lease-ttl",),
             {"type": _positive_float, "default": 30.0,
              "metavar": "SECONDS",
              "help": "remote backend: seconds a worker may hold a "
                      "shard before it is re-leased (default 30)"}),
            (("--cache-dir",),
             {"default": None, "metavar": "DIR",
              "help": "persistent result-cache directory (default "
                      "$REPRO_CACHE_DIR or ~/.cache/repro)"}),
            (("--no-cache",),
             {"action": "store_true", "default": False,
              "help": "disable the persistent result cache"})):
        parser.add_argument(*flags, **options)
        group.add_argument(*flags,
                           **{**options, "default": argparse.SUPPRESS})


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse a ``repro`` command line (``sys.argv[1:]`` by default)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of '3D Memory Vectorization for High "
                    "Bandwidth Media Memory Systems' (MICRO-35, 2002)")
    common = argparse.ArgumentParser(add_help=False)
    _add_engine_options(parser, common.add_argument_group("engine options"))
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and benchmarks",
                   parents=[common])

    p_run = sub.add_parser("run", help="run specific experiments",
                           parents=[common])
    p_run.add_argument("experiments", nargs="+")

    sub.add_parser("all", help="run the full evaluation suite",
                   parents=[common])
    sub.add_parser("tables",
                   help="run the full evaluation suite (alias of 'all')",
                   parents=[common])

    p_bench = sub.add_parser(
        "bench", parents=[common],
        help="simulate one benchmark configuration")
    p_bench.add_argument("name", metavar="NAME",
                         choices=benchmark_names(),
                         help="a workload (see 'repro list')")
    p_bench.add_argument("--coding", default="mom3d", choices=CODINGS)
    p_bench.add_argument("--memsys", default="vector",
                         choices=_MEMSYS_CHOICES)
    p_bench.add_argument("--l2-latency", type=int, default=20)

    def _add_grid_axes(p) -> None:
        p.add_argument("-b", "--benchmarks", nargs="+",
                       default=benchmark_names(),
                       choices=benchmark_names())
        p.add_argument("-c", "--codings", nargs="+",
                       default=["mom3d"], choices=CODINGS)
        p.add_argument("-m", "--memsys", nargs="+",
                       default=["vector"], choices=_MEMSYS_CHOICES)
        p.add_argument("-l", "--l2-latency", nargs="+", type=int,
                       default=[20], metavar="CYCLES")
        p.add_argument("--cold", action="store_true",
                       help="simulate with cold caches (no priming)")
        p.add_argument("--set", action="append", type=_parse_set,
                       metavar="FIELD=V1[,V2...]",
                       help="override axis; repeatable, axes combine "
                            "as a cartesian product")

    p_sweep = sub.add_parser(
        "sweep", parents=[common],
        help="simulate a declarative grid of configurations")
    _add_grid_axes(p_sweep)

    from repro.explore import OBJECTIVE_NAMES

    p_explore = sub.add_parser(
        "explore", parents=[common],
        help="search a config space: Pareto frontier over slowdown x "
             "L2 power x area, with optional epsilon-constraint query")
    _add_grid_axes(p_explore)
    p_explore.set_defaults(codings=list(CODINGS))
    p_explore.add_argument("--within", type=_positive_float,
                           metavar="PCT",
                           help="epsilon constraint: admit candidates "
                                "whose --constraint objective is within "
                                "PCT%% of the best observed value")
    p_explore.add_argument("--limit", type=_positive_float,
                           metavar="VALUE",
                           help="absolute bound on the --constraint "
                                "objective (alternative to --within)")
    p_explore.add_argument("--constraint", default="slowdown",
                           choices=OBJECTIVE_NAMES, metavar="OBJECTIVE",
                           help="objective the --within/--limit bound "
                                "applies to (default: slowdown)")
    p_explore.add_argument("--minimize", default="area_tracks",
                           choices=OBJECTIVE_NAMES, metavar="OBJECTIVE",
                           help="objective minimized among admitted "
                                "candidates (default: area_tracks)")
    p_explore.add_argument("--budget", type=_positive_int, default=None,
                           metavar="N",
                           help="evaluate at most N candidates via "
                                "seeded random/neighborhood proposals "
                                "(default: whole space)")
    p_explore.add_argument("--no-prune", action="store_true",
                           help="disable successive-halving pruning "
                                "(every candidate gets all benchmarks)")
    p_explore.add_argument("--margin", type=float, default=0.05,
                           metavar="FRAC",
                           help="relative dominance margin required "
                                "before pruning on partial-workload "
                                "scores (default 0.05)")
    p_explore.add_argument("--rung-fraction", type=float, default=0.5,
                           metavar="FRAC",
                           help="fraction of benchmarks in the first "
                                "halving rung (default 0.5)")
    p_explore.add_argument("--proposal-seed", type=int, default=0,
                           metavar="SEED",
                           help="seed for the budgeted proposal order")
    p_explore.add_argument("--url", default=None,
                           help="simulate on a 'repro serve' instance: "
                                "each search rung is one job there")
    p_explore.add_argument("--timeout", type=float, default=300.0,
                           metavar="SECONDS",
                           help="--url only: give up on the query "
                                "after this long")

    p_report = sub.add_parser("report", parents=[common],
                              help="write the measured-results markdown")
    p_report.add_argument("-o", "--output", default="results.md")

    p_trace = sub.add_parser("trace", help="export a workload trace",
                             parents=[common])
    p_trace.add_argument("name", choices=benchmark_names())
    p_trace.add_argument("coding", choices=CODINGS)
    p_trace.add_argument("-o", "--output", required=True)

    p_replay = sub.add_parser(
        "replay", parents=[common],
        help="re-time a saved trace through the engine (cached, "
             "content-addressed by the trace bytes)")
    p_replay.add_argument("trace")
    p_replay.add_argument("--coding", default="mom3d", choices=CODINGS)
    p_replay.add_argument("--memsys", default="vector",
                          choices=_MEMSYS_CHOICES)
    p_replay.add_argument("--l2-latency", type=int, default=20)
    p_replay.add_argument("--cold", action="store_true",
                          help="simulate with cold caches (no priming)")
    p_replay.add_argument("--set", action="append", type=_parse_set,
                          metavar="FIELD=V1[,V2...]",
                          help="override axis; repeatable, axes combine "
                               "as a cartesian product")

    p_serve = sub.add_parser(
        "serve", parents=[common],
        help="host the HTTP job service over this engine")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8737,
                         help="listen port (0 picks a free one)")
    p_serve.add_argument("--workers", type=int, default=2, metavar="N",
                         help="executor threads resolving batches")
    p_serve.add_argument("--max-jobs", type=int, default=256,
                         metavar="N",
                         help="running-jobs limit (further submissions "
                              "get HTTP 429 until some finish)")
    p_serve.add_argument("--drain-grace", type=_positive_float,
                         default=30.0, metavar="SECONDS",
                         help="SIGTERM drain: seconds to let in-flight "
                              "work finish before exiting "
                              "(default 30)")

    p_submit = sub.add_parser(
        "submit", parents=[common],
        help="run a declarative grid on a running 'repro serve'")
    _add_grid_axes(p_submit)
    p_submit.add_argument("--url", default="http://127.0.0.1:8737",
                          help="service base URL")
    p_submit.add_argument("--timeout", type=float, default=300.0,
                          metavar="SECONDS",
                          help="give up waiting after this long")

    p_worker = sub.add_parser(
        "worker", parents=[common],
        help="execute leased shards from a remote-backend "
             "'repro serve'")
    p_worker.add_argument("--url", default="http://127.0.0.1:8737",
                          help="service base URL")
    p_worker.add_argument("--id", dest="worker_id", default=None,
                          metavar="NAME",
                          help="stable worker name (default: random)")
    p_worker.add_argument("--poll-interval", type=float, default=0.2,
                          metavar="SECONDS",
                          help="idle delay between lease polls")
    p_worker.add_argument("--max-idle", type=float, default=None,
                          metavar="SECONDS",
                          help="exit after this long without work "
                               "(default: poll forever)")
    p_worker.add_argument("--max-shards", type=int, default=None,
                          metavar="N",
                          help="exit after completing N shards")

    p_cache = sub.add_parser(
        "cache", parents=[common],
        help="inspect, query or garbage-collect the persistent "
             "result cache")
    p_cache.add_argument("action", choices=("ls", "stat", "gc", "query"),
                         help="ls: list entries per code version; "
                              "stat: per-version totals from the "
                              "store index; gc: delete superseded "
                              "code versions and compact segments; "
                              "query: bulk-scan stored results by "
                              "spec fields")
    p_cache.add_argument("--dry-run", action="store_true",
                         help="gc only: report what would be deleted "
                              "without touching the disk")
    p_cache.add_argument("--url", metavar="URL",
                         help="query only: ask a running service "
                              "(GET /v1/results) instead of reading "
                              "the local cache directory")
    p_cache.add_argument("--benchmark", help="query filter")
    p_cache.add_argument("--coding", help="query filter")
    p_cache.add_argument("--memsys", help="query filter")
    p_cache.add_argument("--l2-latency", type=int, default=None,
                         help="query filter")
    p_cache.add_argument("--version", default=None, metavar="VER",
                         help="query only: code-version namespace "
                              "(default: the active one)")
    p_cache.add_argument("--limit", type=_positive_int, default=50,
                         metavar="N",
                         help="query only: maximum results to print "
                              "(default 50)")

    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> int:
    """Run a parsed command; returns its exit status."""
    if args.backend == "remote" and args.command != "serve":
        # only serve's listener lets workers reach the work queue
        print("error: --backend remote runs only under 'repro serve'; "
              "run this command locally with --backend inline",
              file=sys.stderr)
        return 2
    handlers = {"list": _cmd_list, "run": _cmd_run, "all": _cmd_all,
                "tables": _cmd_all, "bench": _cmd_bench,
                "sweep": _cmd_sweep, "explore": _cmd_explore,
                "report": _cmd_report,
                "trace": _cmd_trace, "replay": _cmd_replay,
                "serve": _cmd_serve, "submit": _cmd_submit,
                "worker": _cmd_worker, "cache": _cmd_cache}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    return run(parse_args(argv))


def is_one_shot(args: argparse.Namespace) -> bool:
    """Whether nothing of ``args``'s command outlives its return.

    ``python -m repro`` runs such a command with the cyclic GC off and
    ends it without interpreter teardown.  ``serve`` and ``worker``
    run until stopped and own threads and sockets, so they keep the GC
    and the normal exit.
    """
    return args.command not in ("serve", "worker")


def is_traced() -> bool:
    """Whether a tracer, profiler or ``sys.monitoring`` tool is attached.

    Such a tool (``python -m cProfile -m repro ...``, a debugger, a
    coverage run) reports at the interpreter's normal exit, so
    ``python -m repro`` keeps that exit for it.  From Python 3.12
    cProfile registers as ``sys.monitoring`` tool 2 instead of setting
    a profile function.
    """
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6))


if __name__ == "__main__":
    sys.exit(main())
