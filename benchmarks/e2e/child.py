"""Child-process entry points of the end-to-end benchmark.

``run.py`` times these from the outside, each in a fresh process::

    child.py setup [--cache-dir DIR] [--seed S]
        import repro.cli and build the engine a workload uses (the
        set-up cost every invocation pays), then exit
    child.py sweep --specs FILE --out FILE [--dump] [--grid-mode MODE]
        Engine(backend="inline", use_cache=False).run_many(specs); write
        the summed simulated statistics (and with --dump every result)

``--grid-mode`` (the ``Engine(grid_mode=...)`` argument) exists only for
the grid on/off note recorded in ``baseline.json``; no workload passes
it.  Specs are ``RunSpec.to_dict`` dicts (see ``inputs.py``).
"""

from __future__ import annotations

import argparse
import json
import sys

#: the simulated statistics summed over fresh results; deterministic, so
#: they must repeat exactly across rounds and across timing-only changes
SIM_FIELDS = ("instructions", "cycles", "l2_activity", "cache_words")


def sim_sums(stats_list) -> dict:
    """``sim.*`` sums over an iterable of ``RunStats``."""
    sums = {f"sim.{field}": 0 for field in SIM_FIELDS}
    for stats in stats_list:
        for field in SIM_FIELDS:
            sums[f"sim.{field}"] += getattr(stats, field)
    return sums


def setup(cache_dir: str | None, seed: int):
    """What a workload's process does before its first simulation."""
    import repro.cli  # noqa: F401  (every command pays this import)
    from repro.engine import Engine
    from repro.harness import Runner

    if cache_dir is None:
        return Engine(backend="inline", use_cache=False)
    return Runner(seed=seed, backend="inline", cache_dir=cache_dir).engine


def run_sweep(spec_dicts, grid_mode: str | None = None) -> dict:
    """Simulate every spec on a fresh uncached inline engine."""
    import repro.cli  # noqa: F401
    from repro.engine import Engine, RunSpec

    options = {} if grid_mode is None else {"grid_mode": grid_mode}
    engine = Engine(backend="inline", use_cache=False, **options)
    return engine.run_many([RunSpec.from_dict(d) for d in spec_dicts])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="command", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--cache-dir", default=None)
    p_setup.add_argument("--seed", type=int, default=0)
    p_sweep = sub.add_parser("sweep")
    p_sweep.add_argument("--specs", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--dump", action="store_true")
    p_sweep.add_argument("--grid-mode", default=None)
    args = parser.parse_args(argv)
    if args.command == "setup":
        setup(args.cache_dir, args.seed)
    else:
        with open(args.specs, encoding="utf-8") as handle:
            specs = json.load(handle)
        results = run_sweep(specs, args.grid_mode)
        payload = {"count": len(results),
                   "sums": sim_sums(results.values())}
        if args.dump:
            payload["results"] = [[spec.to_dict(), stats.to_dict()]
                                  for spec, stats in results.items()]
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
