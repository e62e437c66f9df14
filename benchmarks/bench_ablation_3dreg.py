"""Ablation — 3D register file provisioning.

Two sweeps around the paper's design point (2 logical / 4 physical
registers, 16 x 128-byte elements):

* physical-register (rename) depth, which bounds how many slabs can be
  in flight and therefore how much load latency double-buffering hides;
* element width, which bounds the slab a single ``dvload3`` can cover
  (the area model shows what each option costs).

The timing sweep is declared with :class:`repro.engine.Sweep` and
resolved through the engine, so the points land in the shared result
cache (and fan out across processes under ``run_many(jobs=N)``).
"""

from repro.engine import Sweep, axes_product, run_many
from repro.harness.tables import Table
from repro.models import rf_area_tracks

DEPTHS = (1, 2, 4, 8)


def run_depth_sweep(jobs: int = 1):
    sweep = Sweep(benchmarks=("mpeg2_encode",), codings=("mom3d",),
                  overrides=axes_product(extra_d3_regs=DEPTHS))
    results = run_many(sweep.specs(), jobs=jobs)
    table = Table(["extra phys regs", "cycles"],
                  title="3D RF rename-depth ablation (mpeg2_encode)")
    for spec in sweep.specs():
        table.add_row(dict(spec.overrides)["extra_d3_regs"],
                      results[spec].cycles)
    return table


def run_width_area_sweep():
    table = Table(["element bytes", "total bits", "area (wt^2)"],
                  title="3D RF element-width area cost")
    for width in (32, 64, 128, 256):
        # 4 physical registers x 16 elements x width bytes
        total_bits = 4 * 16 * width * 8
        table.add_row(width, total_bits, rf_area_tracks(total_bits, 1, 1))
    return table


def test_ablation_3d_depth(benchmark):
    table = benchmark.pedantic(run_depth_sweep, rounds=1, iterations=1)
    print()
    print(table.render())
    cycles = table.column("cycles")
    # deeper renaming never hurts; the paper's 4 physical (2 extra)
    # capture almost all of the benefit
    assert cycles[0] >= cycles[1] >= cycles[2] >= cycles[3]
    assert cycles[1] - cycles[3] < 0.1 * cycles[1]


def test_ablation_3d_width_area(benchmark):
    table = benchmark.pedantic(run_width_area_sweep, rounds=1,
                               iterations=1)
    print()
    print(table.render())
    areas = table.column("area (wt^2)")
    assert areas == sorted(areas)
    # the paper's 128-byte element costs 1,966,080 square wire tracks
    assert table.cell(128, "area (wt^2)") == 1_966_080
