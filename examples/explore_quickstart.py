"""Design-space exploration in ~30 lines.

Asks the acceptance-criterion question from ``docs/explore.md``:
over the Fig. 9 configuration space (3 codings x 3 memory systems),
what is the *cheapest register file* whose average slowdown stays
within 5% of the best observed — and how many of the 45 exhaustive
simulation points did answering it actually require?

The same query simulates on a ``repro serve`` instance with
``explore(ServiceClient(url), query)`` — the search runs here and
sends each rung to the server as one job — or runs from the shell
as::

    repro explore -c mmx mom mom3d -m multibank vector ideal --within 5

Run:  python examples/explore_quickstart.py
"""

from repro.engine import Engine
from repro.explore import Constraint, ExploreQuery, explore


def main() -> None:
    query = ExploreQuery(
        codings=("mmx", "mom", "mom3d"),
        memsystems=("multibank", "vector", "ideal"),
        constraint=Constraint("slowdown", within=0.05),
        minimize="area_tracks",
    )
    report = explore(Engine(), query)

    print("Pareto frontier (slowdown x L2 watts x area tracks):")
    for record in report.frontier:
        objectives = record.objectives
        print(f"  {record.candidate.label():16s} "
              f"slowdown {objectives.slowdown:5.2f}  "
              f"L2 {objectives.l2_watts:5.2f} W  "
              f"area {objectives.area_tracks:>9,.0f}")
    if report.best is not None:
        print(f"\ncheapest config with slowdown <= {report.bound:.3f}: "
              f"{report.best.candidate.label()}")
    stats = report.stats
    print(f"simulations requested: {stats.specs_requested} of "
          f"{stats.exhaustive_specs} exhaustive "
          f"({stats.specs_saved} saved by pruning)")


if __name__ == "__main__":
    main()
