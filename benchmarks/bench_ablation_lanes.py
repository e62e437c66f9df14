"""Ablation — MOM SIMD lane count (the paper fixes 4 lanes).

Sweeps the number of lanes of the single MOM SIMD unit (and of the 3D
RF slice path), showing the compute-side scaling that motivates the
4-lane choice: below 4 lanes the SIMD unit, not the memory system,
bounds the media kernels.

Declared as an engine sweep: each lane count is one override point of
the grid, resolved (and cached) through
:meth:`repro.engine.Engine.run_many`.
"""

from contextlib import closing

from repro.engine import Engine, Sweep
from repro.harness.tables import Table

LANES = (1, 2, 4, 8)


def run_lane_sweep(jobs: int = 1):
    sweep = Sweep(
        benchmarks=("mpeg2_encode",), codings=("mom3d",),
        overrides=[{"simd_lanes": n, "d3_move_lanes": n} for n in LANES])
    with closing(Engine(jobs=jobs)) as engine:
        results = engine.run_many(sweep.specs())
    table = Table(["lanes", "cycles", "speedup vs 1 lane"],
                  title="MOM SIMD lane-count ablation (mpeg2_encode, "
                        "MOM+3D, vector cache)")
    base = None
    for spec in sweep.specs():
        cycles = results[spec].cycles
        base = cycles if base is None else base
        table.add_row(dict(spec.overrides)["simd_lanes"], cycles,
                      base / cycles)
    return table


def test_ablation_lanes(benchmark):
    table = benchmark.pedantic(run_lane_sweep, rounds=1, iterations=1)
    print()
    print(table.render())
    cycles = table.column("cycles")
    # more lanes never hurt, and 1 -> 4 lanes must show real scaling
    assert cycles[0] >= cycles[1] >= cycles[2] >= cycles[3]
    assert cycles[0] / cycles[2] > 1.3
    # diminishing returns past the paper's 4 lanes
    assert cycles[2] / cycles[3] < cycles[0] / cycles[2]
