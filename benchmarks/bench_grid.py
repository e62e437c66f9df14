"""Grid-axis execution benchmark: grid-mode on vs off.

Times the cold fig3 + fig9 + table1 grids — the deduped paper
evaluation surface, resolved through an ``Engine`` with the inline
backend and no result cache — once with ``grid_mode="off"`` (the
per-spec batched path) and once with ``grid_mode="on"`` (one
:class:`~repro.timing.grid.GridPipeline` pass per trace group), and
records the wall-clock ratio in ``BENCH_grid.json`` along with a
per-trace-group breakdown.

Both modes share the in-process decode memo within a column (exactly
like a real cold CLI/engine invocation) and the memo is cleared before
every measured column, so each column pays the full decode + replay +
schedule cost for its mode.

The aggregate ratio on this particular grid is bounded by its groups:
both modes share the trace decode, and both walk every instruction of
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

from repro.engine import Engine
from repro.engine.parallel import grid_group_key
from repro.harness.experiments import paper_grids
from repro.timing import predecode

BENCH_OUT = Path(__file__).resolve().parent.parent / "BENCH_grid.json"
#: best-of-N columns per mode (deterministic work; min defeats noise)
ROUNDS = 5
#: soft gate: the CI job warns (does not fail) below this ratio
MIN_SPEEDUP = 2.0


def _cold_column(specs, grid_mode: str) -> float:
    """Wall-clock seconds to resolve ``specs`` cold in one mode."""
    predecode._DECODE_CACHE.clear()
    gc.collect()
    engine = Engine(use_cache=False, backend="inline",
                    grid_mode=grid_mode)
    start = time.perf_counter()
    engine.run_many(specs)
    return time.perf_counter() - start


def run_benchmark() -> dict:
    specs = paper_grids()
    groups: dict[tuple, list] = {}
    for spec in specs:
        groups.setdefault(grid_group_key(spec), []).append(spec)

    # warm up workload builds, numpy and the allocator before timing
    _cold_column(specs, "on")
    _cold_column(specs, "off")
    on = min(_cold_column(specs, "on") for _ in range(ROUNDS))
    auto = min(_cold_column(specs, "auto") for _ in range(ROUNDS))
    off = min(_cold_column(specs, "off") for _ in range(ROUNDS))

    per_group = {}
    for key, members in sorted(groups.items()):
        label = f"{key[0]}/{key[1]}"
        g_on = min(_cold_column(members, "on") for _ in range(ROUNDS))
        g_auto = min(_cold_column(members, "auto") for _ in range(ROUNDS))
        g_off = min(_cold_column(members, "off") for _ in range(ROUNDS))
        per_group[label] = {
            "specs": len(members),
            "off_seconds": round(g_off, 4),
            "on_seconds": round(g_on, 4),
            "auto_seconds": round(g_auto, 4),
            "speedup": round(g_off / g_on, 2),
            "speedup_auto": round(g_off / g_auto, 2),
        }

    payload = {
        "grid": ("fig3 + fig9 + table1 (deduped), cold engine, inline "
                 "backend: grid-mode on vs off"),
        "specs": len(specs),
        "trace_groups": len(groups),
        "rounds": ROUNDS,
        "off_seconds": round(off, 4),
        "on_seconds": round(on, 4),
        "auto_seconds": round(auto, 4),
        "speedup": round(off / on, 2),
        "speedup_auto": round(off / auto, 2),
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
    # Hard floor: grid mode must never lose to the per-spec path by
    # more than measurement noise (loaded CI runners are noisy; the
    # idle-machine aggregate is ~1.4x); the 2x target is a soft CI
    # gate (see the bench-grid job), not a test failure.
    assert payload["speedup"] >= 0.7, payload
    # Auto mode must never make a trace group meaningfully slower than
    # the per-spec path: it takes the grid path for every group of two
    # or more specs, so a per-group auto ratio below 0.95x means the
    # grid path lost to the per-spec path there.  Sub-10ms columns
    # (the single-spec mom3d groups, where auto runs the *identical*
    # off-path code) can miss the ratio on scheduler jitter alone, so
    # also require a >2ms absolute loss before failing.
    slow = {label: group["speedup_auto"]
            for label, group in payload["per_group"].items()
            if group["speedup_auto"] < 0.95
            and group["auto_seconds"] - group["off_seconds"] > 0.002}
    assert not slow, f"auto mode loses on {slow}"
    if payload["speedup"] < MIN_SPEEDUP:
        print(f"::warning title=bench-grid::grid-mode speedup "
              f"{payload['speedup']}x is below the {MIN_SPEEDUP}x "
              f"target on this runner")


if __name__ == "__main__":
    print(json.dumps(run_benchmark(), indent=2))
