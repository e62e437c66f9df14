"""The exploration driver: frontier queries over ``Engine.run_many``.

:class:`ExploreQuery` declares a design space (coding x memory-system
x latency x override axes), the workloads to score it on, and the
question — the Pareto frontier over the chosen objectives, optionally
narrowed by an epsilon constraint ("cheapest area within 5% of the
best slowdown").  :class:`Exploration` answers it against any
``evaluate(specs) -> {RunSpec: RunStats}`` callable — the in-process
``Engine.run_many``, or a service's ``ServiceClient.run_many`` —
issuing as few simulations as it can get away with:

* **Batch shaping** — each rung is fetched as ONE evaluate call over
  all candidates x workloads (baselines included), so specs sharing a
  ``(benchmark, coding, seed, warm)`` trace group reach the engine
  together and the grid-axis pass stays engaged.
* **Successive halving** — candidates are first scored on a workload
  prefix (``rung_fraction``); those margin-dominated there
  (:func:`~repro.explore.pareto.prunes`) are killed before paying for
  the remaining workloads.  The margin makes the kill test robust to
  partial-vs-full score drift; on order-consistent tables it is exact.
* **Budgeted proposals** — spaces larger than ``budget`` are sampled:
  a seeded random wave first, then neighborhood moves around the
  running frontier (one axis stepped at a time), topped up randomly.

Determinism contract: same query (including ``proposal_seed``), same
answer — proposals come from a seeded ``random.Random``, iteration
order is insertion order throughout, and nothing reads a clock.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from repro.engine.keys import RunSpec
from repro.errors import ConfigError
from repro.explore.objectives import (
    ESTIMATED_OBJECTIVES,
    OBJECTIVE_NAMES,
    Candidate,
    ExploreRecord,
    baseline_spec,
    candidate_objectives,
)
from repro.explore.pareto import (
    epsilon_constraint,
    halving_survivors,
    pareto_frontier,
)
from repro.timing.stats import RunStats
from repro.workloads import benchmark_names


@dataclass(frozen=True)
class Constraint:
    """An epsilon constraint on one objective.

    Exactly one of ``within`` (relative: bound the objective to
    ``(1 + within) x`` its best observed value) or ``limit``
    (absolute bound) must be set.
    """

    objective: str
    within: float | None = None
    limit: float | None = None

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVE_NAMES:
            raise ConfigError(
                f"unknown constraint objective {self.objective!r}; "
                f"expected one of {OBJECTIVE_NAMES}")
        if (self.within is None) == (self.limit is None):
            raise ConfigError(
                "a constraint takes exactly one of within/limit")
        if self.within is not None and self.within < 0:
            raise ConfigError(
                f"constraint within must be >= 0, got {self.within}")


@dataclass(frozen=True)
class ExploreQuery:
    """A declarative design-space question.

    Axes mirror :class:`~repro.engine.sweep.Sweep` minus the benchmark
    axis (workloads score candidates, they are not part of the design
    space); ``benchmarks=None`` means the full suite.
    """

    codings: tuple[str, ...]
    memsystems: tuple[str, ...] = ("vector",)
    l2_latencies: tuple[int, ...] = (20,)
    overrides: tuple = (({}),)
    benchmarks: tuple[str, ...] | None = None
    warm: bool = True
    seed: int = 0
    objectives: tuple[str, ...] = OBJECTIVE_NAMES
    constraint: Constraint | None = None
    #: the objective the constrained query minimizes
    minimize: str = "area_tracks"
    #: candidates to evaluate at most; None = the whole space
    budget: int | None = None
    #: successive halving on a workload prefix before full evaluation
    prune: bool = True
    #: fraction of the workloads scored at the pruning rung
    rung_fraction: float = 0.5
    #: relative win a dominator needs on estimated objectives to prune
    margin: float = 0.05
    #: seeds the random/neighborhood proposal loop (budgeted spaces)
    proposal_seed: int = 0

    def __post_init__(self) -> None:
        for name, value in (("codings", self.codings),
                            ("memsystems", self.memsystems),
                            ("l2_latencies", self.l2_latencies),
                            ("overrides", self.overrides)):
            value = tuple(value)
            object.__setattr__(self, name, value)
            if not value:
                raise ConfigError(f"explore axis {name!r} is empty")
        if self.benchmarks is not None:
            benchmarks = tuple(self.benchmarks)
            if not benchmarks:
                raise ConfigError("explore benchmarks is empty; omit "
                                  "it to use the full suite")
            unknown = [b for b in benchmarks
                       if b not in benchmark_names()]
            if unknown:
                raise ConfigError(
                    f"unknown benchmark {unknown[0]!r}; known: "
                    f"{benchmark_names()}")
            object.__setattr__(self, "benchmarks", benchmarks)
        objectives = tuple(self.objectives)
        object.__setattr__(self, "objectives", objectives)
        if not objectives:
            raise ConfigError("explore needs >= 1 objective")
        if len(set(objectives)) != len(objectives):
            raise ConfigError(f"duplicate objectives in {objectives}")
        unknown = [o for o in objectives if o not in OBJECTIVE_NAMES]
        if unknown:
            raise ConfigError(
                f"unknown objective {unknown[0]!r}; expected a subset "
                f"of {OBJECTIVE_NAMES}")
        if self.minimize not in objectives:
            raise ConfigError(
                f"minimize target {self.minimize!r} is not among the "
                f"query objectives {objectives}")
        if self.constraint is not None \
                and self.constraint.objective not in objectives:
            raise ConfigError(
                f"constraint objective {self.constraint.objective!r} "
                f"is not among the query objectives {objectives}")
        if self.budget is not None and self.budget < 1:
            raise ConfigError(f"budget must be >= 1, got {self.budget}")
        if not 0 < self.rung_fraction <= 1:
            raise ConfigError(f"rung_fraction must be in (0, 1], got "
                              f"{self.rung_fraction}")
        if self.margin < 0:
            raise ConfigError(f"margin must be >= 0, got {self.margin}")

    def workloads(self) -> tuple[str, ...]:
        """The workloads scoring this query (default: the full suite)."""
        return (tuple(benchmark_names()) if self.benchmarks is None
                else self.benchmarks)

    def space(self) -> list[Candidate]:
        """The candidate product, deduplicated (ideal collapses l2)."""
        seen: dict[Candidate, None] = {}
        for coding in self.codings:
            for memsys in self.memsystems:
                for latency in self.l2_latencies:
                    for over in self.overrides:
                        over_items = (tuple(over.items())
                                      if isinstance(over, Mapping)
                                      else tuple(over))
                        seen[Candidate(coding=coding, memsys=memsys,
                                       l2_latency=latency,
                                       overrides=over_items)] = None
        return list(seen)

    def exhaustive_specs(self) -> int:
        """Specs an exhaustive sweep needs (baselines included)."""
        specs = {candidate.spec(benchmark, warm=self.warm,
                                seed=self.seed)
                 for candidate in self.space()
                 for benchmark in self.workloads()}
        specs.update(baseline_spec(benchmark, warm=self.warm,
                                   seed=self.seed)
                     for benchmark in self.workloads())
        return len(specs)


@dataclass
class ExploreStats:
    """What one exploration cost, and what it saved."""

    #: candidates in the declared space (after dedup)
    space_size: int = 0
    #: candidates proposed to a pruning rung
    candidates_proposed: int = 0
    #: candidates fully evaluated (eligible for the frontier)
    candidates_evaluated: int = 0
    #: candidates killed at the pruning rung
    candidates_pruned: int = 0
    #: unique specs requested from the evaluator
    specs_requested: int = 0
    #: specs the exhaustive sweep would have requested
    exhaustive_specs: int = 0
    #: evaluate() batches issued (rungs, not specs)
    batches: int = 0
    #: size of the returned frontier
    frontier_size: int = 0

    @property
    def specs_saved(self) -> int:
        return max(0, self.exhaustive_specs - self.specs_requested)

    def to_dict(self) -> dict:
        return {"space_size": self.space_size,
                "candidates_proposed": self.candidates_proposed,
                "candidates_evaluated": self.candidates_evaluated,
                "candidates_pruned": self.candidates_pruned,
                "specs_requested": self.specs_requested,
                "exhaustive_specs": self.exhaustive_specs,
                "specs_saved": self.specs_saved,
                "batches": self.batches,
                "frontier_size": self.frontier_size}

    def summary(self) -> str:
        return (f"space={self.space_size} "
                f"evaluated={self.candidates_evaluated} "
                f"pruned={self.candidates_pruned} "
                f"specs={self.specs_requested}/{self.exhaustive_specs} "
                f"saved={self.specs_saved} "
                f"frontier={self.frontier_size}")


@dataclass(frozen=True)
class ExploreReport:
    """A finished exploration's answer."""

    #: non-dominated fully-evaluated candidates, evaluation order
    frontier: tuple[ExploreRecord, ...]
    #: the epsilon-constraint winner (None without a constraint, or
    #: when nothing satisfied it)
    best: ExploreRecord | None
    #: the resolved constraint bound (None without a constraint)
    bound: float | None
    #: every fully-evaluated record, evaluation order
    evaluated: tuple[ExploreRecord, ...]
    #: partial (rung) records of candidates killed by halving
    pruned: tuple[ExploreRecord, ...]
    stats: ExploreStats

    def to_dict(self) -> dict:
        return {
            "frontier": [record.to_dict() for record in self.frontier],
            "best": self.best.to_dict() if self.best else None,
            "bound": self.bound,
            "stats": self.stats.to_dict(),
        }


class Exploration:
    """Drives one :class:`ExploreQuery` over an evaluate callable."""

    def __init__(self, query: ExploreQuery):
        self.query = query
        self.stats = ExploreStats()
        self._results: dict[RunSpec, RunStats] = {}

    # -- evaluation plumbing -----------------------------------------------

    def _fetch(self, evaluate, specs: Iterable[RunSpec]) -> None:
        """Resolve unseen specs in one batch (keeps grid groups whole)."""
        wanted = [spec for spec in dict.fromkeys(specs)
                  if spec not in self._results]
        if not wanted:
            return
        resolved = evaluate(wanted)
        for spec in wanted:
            self._results[spec] = resolved[spec]
        self.stats.specs_requested += len(wanted)
        self.stats.batches += 1

    def _record(self, candidate: Candidate,
                benchmarks: tuple[str, ...]) -> ExploreRecord:
        return ExploreRecord(
            candidate=candidate,
            objectives=candidate_objectives(
                candidate, benchmarks, self._results,
                warm=self.query.warm, seed=self.query.seed),
            benchmarks=benchmarks)

    # -- proposal loop -----------------------------------------------------

    def _neighbors(self, candidate: Candidate) -> list[Candidate]:
        """One-axis steps from ``candidate`` within the declared axes."""
        query = self.query
        moves: list[Candidate] = []
        override_axis = [tuple(o.items()) if isinstance(o, Mapping)
                         else tuple(o) for o in query.overrides]
        axes = (("coding", tuple(query.codings)),
                ("memsys", tuple(query.memsystems)),
                ("l2_latency", tuple(query.l2_latencies)),
                ("overrides", tuple(override_axis)))
        for field_name, values in axes:
            current = getattr(candidate, field_name)
            try:
                index = values.index(current)
            except ValueError:
                # the candidate's canonicalized value (e.g. ideal's
                # l2_latency=0) is not literally on the axis
                continue
            for step in (-1, 1):
                neighbor = index + step
                if 0 <= neighbor < len(values):
                    moves.append(Candidate(
                        **{**{"coding": candidate.coding,
                              "memsys": candidate.memsys,
                              "l2_latency": candidate.l2_latency,
                              "overrides": candidate.overrides},
                           field_name: values[neighbor]}))
        return moves

    def _propose(self, space: Sequence[Candidate],
                 seen: set[Candidate],
                 frontier: Sequence[ExploreRecord],
                 remaining: int, budget: int,
                 rng: random.Random) -> list[Candidate]:
        """The next wave of candidates (deterministic given the rng)."""
        unseen = [c for c in space if c not in seen]
        if not unseen or remaining <= 0:
            return []
        if budget >= len(space):
            return unseen  # enumerable space: one wave covers it
        share = 2 if not seen else 4  # front-load the random sample
        size = min(remaining, len(unseen),
                   max(2, math.ceil(budget / share)))
        wave: dict[Candidate, None] = {}
        # neighborhood moves around the running frontier first
        for record in frontier:
            for move in self._neighbors(record.candidate):
                if move not in seen and move not in wave:
                    wave[move] = None
                if len(wave) >= size:
                    break
            if len(wave) >= size:
                break
        if len(wave) < size:
            pool = [c for c in unseen if c not in wave]
            wave.update((c, None) for c in
                        rng.sample(pool, min(size - len(wave),
                                             len(pool))))
        return list(wave)

    # -- the driver --------------------------------------------------------

    def run(self, evaluate) -> ExploreReport:
        """Answer the query; ``evaluate`` is ``Engine.run_many``-shaped."""
        query = self.query
        benchmarks = query.workloads()
        space = query.space()
        self.stats.space_size = len(space)
        self.stats.exhaustive_specs = query.exhaustive_specs()

        rung_len = max(1, math.ceil(len(benchmarks)
                                    * query.rung_fraction))
        rung = benchmarks[:rung_len]
        do_prune = query.prune and rung_len < len(benchmarks)
        estimated = tuple(name in ESTIMATED_OBJECTIVES
                          for name in query.objectives)

        budget = len(space) if query.budget is None \
            else min(query.budget, len(space))
        rng = random.Random(query.proposal_seed)
        seen: set[Candidate] = set()
        evaluated: list[ExploreRecord] = []
        pruned: list[ExploreRecord] = []
        frontier: list[ExploreRecord] = []
        remaining = budget

        def vec(record: ExploreRecord) -> tuple[float, ...]:
            return record.objectives.vector(query.objectives)

        while remaining > 0:
            wave = self._propose(space, seen, frontier, remaining,
                                 budget, rng)
            if not wave:
                break
            seen.update(wave)
            remaining -= len(wave)
            self.stats.candidates_proposed += len(wave)

            # rung 1: score the wave on the workload prefix, one batch
            self._fetch(evaluate,
                        [baseline_spec(b, warm=query.warm,
                                       seed=query.seed) for b in rung]
                        + [c.spec(b, warm=query.warm, seed=query.seed)
                           for c in wave for b in rung])
            partial = [self._record(c, rung) for c in wave]
            if do_prune:
                # earlier waves' candidates also act as dominators —
                # their rung results are already cached
                prior = [self._record(r.candidate, rung)
                         for r in evaluated]
                survivors, killed = halving_survivors(
                    partial, key=vec, margin=query.margin,
                    estimated=estimated,
                    extra=[vec(p) for p in prior])
            else:
                survivors, killed = partial, []
            pruned.extend(killed)
            self.stats.candidates_pruned += len(killed)

            # rung 2: full evaluation of the survivors, one batch
            rest = benchmarks[rung_len:]
            self._fetch(evaluate,
                        [baseline_spec(b, warm=query.warm,
                                       seed=query.seed) for b in rest]
                        + [rec.candidate.spec(b, warm=query.warm,
                                              seed=query.seed)
                           for rec in survivors for b in rest])
            full = [self._record(rec.candidate, benchmarks)
                    for rec in survivors]
            evaluated.extend(full)
            self.stats.candidates_evaluated += len(full)
            frontier = pareto_frontier(evaluated, key=vec)

        self.stats.frontier_size = len(frontier)
        best, bound = None, None
        if query.constraint is not None:
            constraint = query.constraint
            best, bound = epsilon_constraint(
                evaluated,
                value=lambda r: getattr(r.objectives,
                                        constraint.objective),
                minimize=lambda r: getattr(r.objectives,
                                           query.minimize),
                within=constraint.within, limit=constraint.limit)
        return ExploreReport(frontier=tuple(frontier), best=best,
                             bound=bound, evaluated=tuple(evaluated),
                             pruned=tuple(pruned), stats=self.stats)


def explore(engine, query: ExploreQuery) -> ExploreReport:
    """Run one query against an engine (or any ``run_many`` owner)."""
    return Exploration(query).run(engine.run_many)
