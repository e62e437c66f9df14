"""Design-space exploration: frontier queries instead of sweeps.

The paper's headline result is a design-space verdict — +50% register
file area buys a 13% speedup and ~30% L2 power saving — and this
package turns that kind of question into a first-class query: instead
of exhaustively simulating a grid and eyeballing tables, ask for the
Pareto frontier over performance x power x area, or the epsilon-
constrained optimum ("cheapest area within 5% of the best slowdown"),
and let the driver decide which simulations are actually needed.

* :mod:`repro.explore.objectives` — total, round-trippable extraction
  of ``(slowdown, l2_watts, area_tracks)`` score vectors from cached
  ``RunStats`` via the existing power/area models;
* :mod:`repro.explore.pareto` — dominance, frontier maintenance,
  margin-guarded pruning and epsilon-constraint filtering as pure,
  property-tested functions;
* :mod:`repro.explore.search` — the :class:`Exploration` driver over
  any ``run_many``: grid-group-shaped batches, successive-halving
  early pruning, budgeted random/neighborhood proposals, and a
  seeded, clock-free determinism contract.

Run as the ``repro explore`` CLI subcommand, on a local engine or,
with ``--url``, against a ``repro serve`` instance whose
``ServiceClient.run_many`` takes each rung as one ordinary job; see
``docs/explore.md``.
"""

from repro.lazy import lazy_exports

# Names load on first access: the CLI parser needs only
# ``OBJECTIVE_NAMES``, and only an exploration runs the search.
__getattr__ = lazy_exports(__name__, {
    "repro.explore.objectives": (
        "ESTIMATED_OBJECTIVES", "OBJECTIVE_NAMES", "Candidate",
        "ExploreRecord", "Objectives", "baseline_spec",
        "candidate_objectives", "spec_objectives"),
    "repro.explore.pareto": (
        "dominates", "epsilon_constraint", "halving_survivors",
        "pareto_frontier", "prunes"),
    "repro.explore.search": (
        "Constraint", "ExploreQuery", "ExploreReport", "ExploreStats",
        "Exploration", "explore"),
})

__all__ = [
    "ESTIMATED_OBJECTIVES", "OBJECTIVE_NAMES", "Candidate",
    "Constraint", "ExploreQuery", "ExploreRecord", "ExploreReport",
    "ExploreStats", "Exploration", "Objectives", "baseline_spec",
    "candidate_objectives", "dominates", "epsilon_constraint",
    "explore", "halving_survivors", "pareto_frontier", "prunes",
    "spec_objectives",
]
