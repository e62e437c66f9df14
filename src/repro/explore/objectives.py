"""Objective extraction: from cached ``RunStats`` to score vectors.

The explore subsystem ranks *candidates* — grid points minus the
benchmark axis — by three minimized objectives derived from the
paper's own models:

* ``slowdown`` — cycles relative to the mom/ideal baseline of the same
  benchmark (the denominator every figure of the paper uses), averaged
  over the query's workloads;
* ``l2_watts`` — dynamic + static L2 power from the Fig. 11 power
  model (:func:`repro.models.run_power`), averaged over workloads;
* ``area_tracks`` — total register-file area in square wire tracks
  from the Table 3 area model (:func:`repro.models.config_area`);
  exact and workload-independent.

Extraction is *total*: :class:`Candidate`, :class:`Objectives` and
:class:`ExploreRecord` render as plain data through ``to_dict``, and
every constructor validates up front so a bad coding or memory system
is a :class:`~repro.errors.ConfigError` at build time, never a
mid-search ``KeyError``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.engine.keys import (
    CODING_NAMES,
    MEMSYS_KINDS,
    RunSpec,
    _normalize_overrides,
)
from repro.errors import ConfigError
from repro.models import config_area, run_power
from repro.timing.stats import RunStats

#: The objective vector's coordinate names, in canonical order.  All
#: objectives are minimized.
OBJECTIVE_NAMES = ("slowdown", "l2_watts", "area_tracks")

#: Objectives estimated from simulation (they drift between a partial
#: workload subset and the full set, so successive-halving pruning
#: applies its safety margin to these).  ``area_tracks`` is computed
#: by the exact Table 3 model and never drifts.
ESTIMATED_OBJECTIVES = frozenset({"slowdown", "l2_watts"})

#: The slowdown denominator: the paper normalizes every configuration
#: to MOM over ideal memory (``Runner.slowdown`` uses the same spec).
BASELINE_CODING = "mom"
BASELINE_MEMSYS = "ideal"


def baseline_spec(benchmark: str, *, warm: bool = True,
                  seed: int = 0) -> RunSpec:
    """The mom/ideal denominator spec for one benchmark."""
    return RunSpec(benchmark=benchmark, coding=BASELINE_CODING,
                   memsys=BASELINE_MEMSYS, warm=warm, seed=seed)


def power_kind(memsys: str) -> str:
    """Map a memory system to its Fig. 11 energy table.

    Only the multi-bank design pays per-bank access energy; the wide
    centralized cache table covers the vector cache and the ideal
    model alike (the latter never touches L2, so its dynamic term is
    zero either way).
    """
    return "multibank" if memsys == "multibank" else "vector"


@dataclass(frozen=True)
class Candidate:
    """One point of the design space: a grid point minus the benchmark.

    Mirrors :class:`~repro.engine.keys.RunSpec` normalization so the
    candidate-to-spec mapping is bijective: overrides sort into a
    canonical tuple and ideal-memory candidates canonicalize
    ``l2_latency`` to 0 (the ideal model ignores it, so every "ideal
    at latency L" is one candidate, one spec digest, one simulation).
    """

    coding: str
    memsys: str = "vector"
    l2_latency: int = 20
    overrides: tuple = field(default=())

    def __post_init__(self) -> None:
        if self.coding not in CODING_NAMES:
            raise ConfigError(f"unknown coding {self.coding!r}; expected "
                              f"one of {CODING_NAMES}")
        if self.memsys not in MEMSYS_KINDS:
            raise ConfigError(f"unknown memory system {self.memsys!r}; "
                              f"expected one of {MEMSYS_KINDS}")
        try:
            config_area(self.coding)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        object.__setattr__(self, "overrides",
                           _normalize_overrides(self.overrides))
        if self.memsys == "ideal":
            object.__setattr__(self, "l2_latency", 0)

    def spec(self, benchmark: str, *, warm: bool = True,
             seed: int = 0) -> RunSpec:
        """The simulation point this candidate names on one workload."""
        return RunSpec(benchmark=benchmark, coding=self.coding,
                       memsys=self.memsys, l2_latency=self.l2_latency,
                       warm=warm, seed=seed, overrides=self.overrides)

    def label(self) -> str:
        parts = [self.coding, self.memsys]
        if self.memsys != "ideal" and self.l2_latency != 20:
            parts.append(f"l{self.l2_latency}")
        parts.extend(f"{name}={value}" for name, value in self.overrides)
        return "/".join(parts)

    def to_dict(self) -> dict:
        return {
            "coding": self.coding,
            "memsys": self.memsys,
            "l2_latency": self.l2_latency,
            "overrides": [[name, value]
                          for name, value in self.overrides],
        }


@dataclass(frozen=True)
class Objectives:
    """One candidate's minimized score vector."""

    slowdown: float
    l2_watts: float
    area_tracks: float

    def vector(self, names: Sequence[str] = OBJECTIVE_NAMES
               ) -> tuple[float, ...]:
        """The scores as a tuple in ``names`` order."""
        return tuple(float(getattr(self, name)) for name in names)

    def to_dict(self) -> dict:
        return {"slowdown": self.slowdown, "l2_watts": self.l2_watts,
                "area_tracks": self.area_tracks}


@dataclass(frozen=True)
class ExploreRecord:
    """A candidate with its objectives over a set of workloads.

    ``benchmarks`` records which workloads the simulation-derived
    objectives aggregate — a successive-halving rung produces partial
    records (a workload prefix); the frontier only ever holds records
    over the query's full workload set.
    """

    candidate: Candidate
    objectives: Objectives
    benchmarks: tuple[str, ...]

    def to_dict(self) -> dict:
        return {"candidate": self.candidate.to_dict(),
                "objectives": self.objectives.to_dict(),
                "benchmarks": list(self.benchmarks)}


def spec_objectives(spec: RunSpec, stats: RunStats,
                    baseline_cycles: int) -> Objectives:
    """Score one simulation point against its mom/ideal baseline."""
    if baseline_cycles <= 0:
        raise ConfigError(
            f"baseline cycles for {spec.benchmark!r} must be positive, "
            f"got {baseline_cycles}")
    power = run_power(stats, power_kind(spec.memsys))
    return Objectives(
        slowdown=stats.cycles / baseline_cycles,
        l2_watts=power.l2_watts,
        area_tracks=float(config_area(spec.coding)["total"]))


def candidate_objectives(candidate: Candidate,
                         benchmarks: Sequence[str],
                         results: Mapping[RunSpec, RunStats], *,
                         warm: bool = True, seed: int = 0) -> Objectives:
    """Aggregate one candidate's objectives over ``benchmarks``.

    ``results`` must hold the candidate's spec *and* the mom/ideal
    baseline spec for every listed benchmark (the exploration driver
    fetches both in one batch).  Simulation-derived objectives are the
    arithmetic mean over workloads; area is workload-independent.
    """
    if not benchmarks:
        raise ConfigError("candidate_objectives needs >= 1 benchmark")
    slowdowns, watts = [], []
    for benchmark in benchmarks:
        spec = candidate.spec(benchmark, warm=warm, seed=seed)
        base = results[baseline_spec(benchmark, warm=warm, seed=seed)]
        scored = spec_objectives(spec, results[spec], base.cycles)
        slowdowns.append(scored.slowdown)
        watts.append(scored.l2_watts)
    return Objectives(
        slowdown=sum(slowdowns) / len(slowdowns),
        l2_watts=sum(watts) / len(watts),
        area_tracks=float(config_area(candidate.coding)["total"]))
