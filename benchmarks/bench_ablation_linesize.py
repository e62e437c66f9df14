"""Ablation — L2 line size vs. the 3D loads' effective bandwidth.

The paper builds the vector memory system over the L2 partly because
its 128-byte lines make whole-line 3D fetches wide (Sec. 5.3).  This
sweep shows effective bandwidth and L2 activity as the line shrinks
or grows around that design point.

The grid is an engine sweep over the ``l2_line`` hierarchy override,
resolved (and cached) through :meth:`repro.engine.Engine.run_many`.
"""

from contextlib import closing

from repro.engine import Engine, Sweep, axes_product
from repro.harness.tables import Table

LINE_BYTES = (64, 128, 256)


def run_line_sweep(jobs: int = 1):
    sweep = Sweep(benchmarks=("gsm_encode",), codings=("mom3d",),
                  overrides=axes_product(l2_line=LINE_BYTES))
    with closing(Engine(jobs=jobs)) as engine:
        results = engine.run_many(sweep.specs())
    table = Table(["line bytes", "eff bw (w/acc)", "L2 activity",
                   "cycles"],
                  title="L2 line-size ablation (gsm_encode, MOM+3D)")
    for spec in sweep.specs():
        stats = results[spec]
        table.add_row(dict(spec.overrides)["l2_line"],
                      stats.effective_bandwidth, stats.l2_activity,
                      stats.cycles)
    return table


def test_ablation_linesize(benchmark):
    table = benchmark.pedantic(run_line_sweep, rounds=1, iterations=1)
    print()
    print(table.render())
    bw = table.column("eff bw (w/acc)")
    activity = table.column("L2 activity")
    # wider lines serve a 3D slab with fewer, wider accesses
    assert bw[0] <= bw[1] <= bw[2]
    assert activity[0] >= activity[1] >= activity[2]
