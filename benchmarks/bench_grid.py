"""Grid-axis execution benchmark: the engine's plan vs the per-spec path.

Times the cold fig3 + fig9 + table1 grids — the deduped paper
evaluation surface — two ways in one process: the per-spec path
(:func:`~repro.engine.parallel.execute_spec` on every spec) and the
engine's plan (:func:`~repro.engine.parallel.simulate_specs`, which
runs each trace group of two or more specs as one
:class:`~repro.timing.grid.GridPipeline` pass and a lone spec per
spec).  It records the wall-clock ratio in ``BENCH_grid.json`` along
with a per-trace-group breakdown.

Both columns share the in-process workload memo (exactly like a real
cold CLI/engine invocation), and the decode memo is cleared before
every measured column, so each column pays the full decode + replay +
schedule cost of its path.  The two columns alternate within each
round, and each keeps its best of ``ROUNDS``.

The aggregate ratio on this particular grid is bounded by its groups:
both paths share the trace decode, and both walk every instruction of
a schedule once.  The grid path wins only what a group's members
share beyond that: the gate tables, one traffic replay per cache
geometry, and a single walk for members with equal timing streams
(warm MMX multibank and ideal).  The per-group numbers in the JSON
show the spread.  ``MIN_SPEEDUP`` is the soft CI gate: the
``bench-grid`` job emits a warning annotation (not a failure) when the
aggregate ratio falls below it.

Run directly (``python benchmarks/bench_grid.py``) or via pytest
(``pytest benchmarks/bench_grid.py``).
"""

import gc
import json
import time
from pathlib import Path

from repro.engine.parallel import (
    execute_spec,
    grid_group_key,
    plan_grid,
    simulate_specs,
)
from repro.harness.experiments import paper_grids
from repro.timing import predecode

BENCH_OUT = Path(__file__).resolve().parent.parent / "BENCH_grid.json"
#: best-of-N columns per path (deterministic work; min defeats noise)
ROUNDS = 5
#: soft gate: the CI job warns (does not fail) below this ratio
MIN_SPEEDUP = 2.0


def _per_spec(specs) -> None:
    for spec in specs:
        execute_spec(spec)


def _cold_column(run, specs) -> float:
    """Wall-clock seconds for ``run(specs)`` from a cleared decode memo."""
    predecode._DECODE_CACHE.clear()
    gc.collect()
    start = time.perf_counter()
    run(specs)
    return time.perf_counter() - start


def _best_pair(specs) -> tuple[float, float]:
    """Best-of-``ROUNDS`` (per-spec, plan) seconds, alternating."""
    per_spec, plan = [], []
    for _ in range(ROUNDS):
        per_spec.append(_cold_column(_per_spec, specs))
        plan.append(_cold_column(simulate_specs, specs))
    return min(per_spec), min(plan)


def run_benchmark() -> dict:
    specs = paper_grids()
    groups: dict[tuple, list] = {}
    for spec in specs:
        groups.setdefault(grid_group_key(spec), []).append(spec)

    # warm up workload builds, numpy and the allocator before timing
    _cold_column(simulate_specs, specs)
    _cold_column(_per_spec, specs)
    per_spec, plan = _best_pair(specs)

    per_group = {}
    for key, members in sorted(groups.items()):
        g_per_spec, g_plan = _best_pair(members)
        per_group[f"{key[0]}/{key[1]}"] = {
            "specs": len(members),
            "path": "grid" if plan_grid(members)[0] else "per-spec",
            "per_spec_seconds": round(g_per_spec, 4),
            "plan_seconds": round(g_plan, 4),
            "speedup": round(g_per_spec / g_plan, 2),
        }

    payload = {
        "grid": ("fig3 + fig9 + table1 (deduped), cold, in-process: "
                 "the engine's plan (simulate_specs) vs the per-spec "
                 "path (execute_spec on each spec)"),
        "specs": len(specs),
        "trace_groups": len(groups),
        "rounds": ROUNDS,
        "per_spec_seconds": round(per_spec, 4),
        "plan_seconds": round(plan, 4),
        "speedup": round(per_spec / plan, 2),
        "soft_gate": MIN_SPEEDUP,
        "per_group": per_group,
    }
    BENCH_OUT.write_text(json.dumps(payload, indent=2) + "\n",
                         encoding="utf-8")
    return payload


def test_grid_speedup():
    payload = run_benchmark()
    print()
    print(json.dumps(payload, indent=2))
    # Hard floor: the plan must never lose to the per-spec path by
    # more than measurement noise (loaded CI runners are noisy); the
    # 2x target is a soft CI gate (see the bench-grid job), not a
    # test failure.
    assert payload["speedup"] >= 0.7, payload
    # The plan must never make a trace group it runs on the grid path
    # meaningfully slower than the per-spec path: a per-group ratio
    # below 0.95x there means the grid path lost.  A group the plan
    # runs per spec runs the same code in both columns, so it is not
    # checked.  Short columns can miss the ratio on scheduler jitter
    # alone, so a group also has to lose more than 2 ms to fail.
    slow = {label: group["speedup"]
            for label, group in payload["per_group"].items()
            if group["path"] == "grid" and group["speedup"] < 0.95
            and group["plan_seconds"] - group["per_spec_seconds"] > 0.002}
    assert not slow, f"the plan loses on {slow}"
    if payload["speedup"] < MIN_SPEEDUP:
        print(f"::warning title=bench-grid::grid plan speedup "
              f"{payload['speedup']}x is below the {MIN_SPEEDUP}x "
              f"target on this runner")


if __name__ == "__main__":
    print(json.dumps(run_benchmark(), indent=2))
