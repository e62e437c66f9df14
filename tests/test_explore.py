"""Explore subsystem: round-trips, model pinning, end-to-end parity.

Four layers, cheapest first:

* explore record construction: normalization and validation;
* objective pinning — the ``(slowdown, l2_watts, area_tracks)`` vector
  extracted from real runs equals the fig9 / fig11 / table3 models
  called directly, and matches ``Runner.slowdown``'s convention;
* the exploration driver against the real engine: the frontier and the
  epsilon-constraint answer equal an exhaustive post-hoc sweep (as
  vector sets), reruns are deterministic, and a warm re-query performs
  zero new simulations;
* the same search over a live service, each rung one ``/v1/jobs`` job
  through ``ServiceClient.run_many``: the engine's answer, and no new
  server simulations on a re-query.
"""

import threading
import time
from contextlib import closing

import pytest

from repro.engine import Engine, RunSpec
from repro.errors import ConfigError
from repro.explore import (
    Candidate,
    Constraint,
    ExploreQuery,
    ExploreRecord,
    Objectives,
    baseline_spec,
    candidate_objectives,
    epsilon_constraint,
    explore,
    pareto_frontier,
)
from repro.cli import main
from repro.harness import Runner
from repro.models import config_area, run_power
from repro.service import ServiceClient, background_server
from repro.timing.stats import RunStats

BENCH = "gsm_encode"  # the smallest trace
#: two-workload subspace of the fig9 product: big enough to engage
#: halving (rung = 1 benchmark), small enough to simulate in a test
PARITY_BENCHMARKS = ("gsm_encode", "mpeg2_decode")


def parity_query() -> ExploreQuery:
    return ExploreQuery(
        codings=("mmx", "mom", "mom3d"),
        memsystems=("multibank", "vector", "ideal"),
        benchmarks=PARITY_BENCHMARKS,
        constraint=Constraint("slowdown", within=0.05),
        minimize="area_tracks")


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    with closing(Engine(jobs=2, cache_dir=tmp_path_factory.mktemp(
            "explore-cache"))) as engine:
        yield engine


# -- records -----------------------------------------------------------------


def test_candidate_roundtrip_and_normalization():
    cand = Candidate(coding="mom3d", memsys="vector", l2_latency=40,
                     overrides=(("l2_line_words", 16),))
    assert cand.overrides == (("l2_line_words", 16),)
    # ideal memory canonicalizes the latency: one candidate, one spec
    ideal_a = Candidate(coding="mom", memsys="ideal", l2_latency=20)
    ideal_b = Candidate(coding="mom", memsys="ideal", l2_latency=99)
    assert ideal_a == ideal_b and ideal_a.l2_latency == 0
    assert ideal_a.spec(BENCH) == ideal_b.spec(BENCH)
    with pytest.raises(ConfigError):
        Candidate(coding="sse2")
    with pytest.raises(ConfigError):
        Candidate(coding="mom", memsys="dram")


def test_record_and_constraint_roundtrip():
    record = ExploreRecord(
        candidate=Candidate(coding="mom"),
        objectives=Objectives(slowdown=1.25, l2_watts=3.5,
                              area_tracks=2939392.0),
        benchmarks=PARITY_BENCHMARKS)
    assert record.to_dict()["objectives"] == {
        "slowdown": 1.25, "l2_watts": 3.5, "area_tracks": 2939392.0}
    with pytest.raises(ConfigError):
        Constraint("slowdown")  # neither bound
    with pytest.raises(ConfigError):
        Constraint("slowdown", within=0.1, limit=2.0)


# -- objective pinning against the paper models ------------------------------


def test_objectives_pin_to_fig9_fig11_table3_models(engine):
    """One grid point's vector == the models called directly."""
    for coding, memsys in (("mom3d", "vector"), ("mom", "multibank")):
        cand = Candidate(coding=coding, memsys=memsys)
        results = engine.run_many([cand.spec(BENCH),
                                   baseline_spec(BENCH)])
        scored = candidate_objectives(cand, (BENCH,), results)
        stats = results[cand.spec(BENCH)]
        base = results[baseline_spec(BENCH)]
        # fig9: cycles over the mom/ideal denominator
        assert scored.slowdown == stats.cycles / base.cycles
        # fig11: the power model, with the multibank energy table
        # exactly when the memory system is the multi-bank design
        kind = "multibank" if memsys == "multibank" else "vector"
        assert scored.l2_watts == run_power(stats, kind).l2_watts
        # table3: exact area, workload-independent
        assert scored.area_tracks == float(
            config_area(coding)["total"])


def test_slowdown_matches_runner_convention(engine):
    runner = Runner(jobs=2, cache_dir=engine.cache.root)
    cand = Candidate(coding="mom3d", memsys="vector")
    results = engine.run_many([cand.spec(BENCH), baseline_spec(BENCH)])
    scored = candidate_objectives(cand, (BENCH,), results)
    assert scored.slowdown == pytest.approx(
        runner.slowdown(BENCH, "mom3d", "vector"))


# -- the driver against the real engine --------------------------------------


def test_explore_matches_exhaustive_post_hoc(engine):
    """Acceptance shape: explore == exhaustive sweep, fewer specs."""
    query = parity_query()
    report = explore(engine, query)

    space = query.space()
    specs = [cand.spec(bench) for cand in space
             for bench in PARITY_BENCHMARKS]
    specs += [baseline_spec(bench) for bench in PARITY_BENCHMARKS]
    results = engine.run_many(specs)
    records = [ExploreRecord(cand,
                             candidate_objectives(
                                 cand, PARITY_BENCHMARKS, results),
                             PARITY_BENCHMARKS)
               for cand in space]

    vec = lambda r: r.objectives.vector()  # noqa: E731
    assert {vec(r) for r in report.frontier} \
        == {vec(r) for r in pareto_frontier(records, key=vec)}

    best, bound = epsilon_constraint(
        records, value=lambda r: r.objectives.slowdown,
        minimize=lambda r: r.objectives.area_tracks, within=0.05)
    assert report.bound == bound
    assert report.best is not None
    assert report.best.objectives.area_tracks \
        == best.objectives.area_tracks
    assert report.best.objectives.slowdown <= bound

    stats = report.stats
    assert stats.space_size == len(space)
    assert stats.candidates_evaluated + stats.candidates_pruned \
        == stats.candidates_proposed
    assert stats.specs_requested <= stats.exhaustive_specs
    assert stats.exhaustive_specs == len(set(specs))


def test_warm_requery_is_deterministic_and_free(engine):
    """Same query again: same answer, zero new simulations."""
    query = parity_query()
    first = explore(engine, query)  # cache-warm from the parity test
    before = engine.stats.simulations
    second = explore(engine, query)
    assert engine.stats.simulations == before
    assert second.to_dict() == first.to_dict()


def test_budgeted_proposals_are_seeded_and_bounded():
    """Budget respected; same proposal_seed -> same evaluations."""
    coding_rank = {"mmx": 1, "mom": 2, "mom3d": 3}
    memsys_rank = {"multibank": 1, "vector": 2, "ideal": 3}

    def fake_stats(spec: RunSpec) -> RunStats:
        cycles = (1000 + 37 * coding_rank[spec.coding]
                  * memsys_rank[spec.memsys] + 11 * spec.l2_latency)
        stats = RunStats(cycles=cycles)
        stats.vector_port.cache_accesses = cycles // 3
        return stats

    def evaluate(specs):
        return {spec: fake_stats(spec) for spec in specs}

    def run(proposal_seed):
        query = ExploreQuery(
            codings=("mmx", "mom", "mom3d"),
            memsystems=("multibank", "vector", "ideal"),
            l2_latencies=(10, 20, 30), benchmarks=PARITY_BENCHMARKS,
            budget=8, proposal_seed=proposal_seed)
        from repro.explore import Exploration

        return Exploration(query).run(evaluate)

    a, b = run(0), run(0)
    assert [r.candidate for r in a.evaluated] \
        == [r.candidate for r in b.evaluated]
    assert a.to_dict() == b.to_dict()
    assert a.stats.candidates_proposed <= 8
    # ideal collapses the latency axis: 3 codings x (2 x 3 + 1)
    assert a.stats.space_size == 21
    assert a.stats.specs_requested < a.stats.exhaustive_specs


# -- over the service -------------------------------------------------------

#: the explore-smoke query: two workloads, so halving takes two rungs
SERVICE_FLAGS = ["-b", *PARITY_BENCHMARKS, "-c", "mmx", "mom", "mom3d",
                 "-m", "vector", "ideal", "--within", "5"]


def test_explore_over_the_service_matches_the_engine(engine, capsys):
    """Each rung one ``/v1/jobs`` job: the engine's answer, no new
    server simulations on a re-query, and ``repro explore --url``
    prints what a local run prints."""
    query = ExploreQuery(
        codings=("mmx", "mom", "mom3d"), memsystems=("vector", "ideal"),
        benchmarks=PARITY_BENCHMARKS,
        constraint=Constraint("slowdown", within=0.05))
    local = explore(engine, query)
    with closing(Engine(use_cache=False, backend="inline")) as served, \
            background_server(served) as server, \
            closing(ServiceClient(server.url)) as client:
        remote = explore(client, query)
        assert served.stats.simulations == remote.stats.specs_requested
        again = explore(client, query)
        assert served.stats.simulations == remote.stats.specs_requested
        assert main(["explore", *SERVICE_FLAGS, "--url", server.url]) == 0
        over_url = capsys.readouterr()
    for report in (remote, again):
        assert report.frontier == local.frontier
        assert report.best == local.best
        assert report.bound == local.bound
        assert report.stats.to_dict() == local.stats.to_dict()
    assert main(["--backend", "inline", "--no-cache", "explore",
                 *SERVICE_FLAGS]) == 0
    here = capsys.readouterr()
    assert over_url.out == here.out
    assert over_url.err.splitlines()[0] == here.err.splitlines()[0]


def test_explore_url_timeout_bounds_the_query(capsys):
    """A query whose first job is held on the service is given up on
    once ``--timeout`` has passed."""
    release = threading.Event()
    with closing(Engine(use_cache=False, backend="inline")) as engine:
        run_many = engine.run_many

        def held(specs, **kwargs):
            release.wait(timeout=30)
            return run_many(specs, **kwargs)

        engine.run_many = held
        with background_server(engine) as server:
            started = time.monotonic()
            try:
                assert main(["explore", *SERVICE_FLAGS, "--url",
                             server.url, "--timeout", "0.2"]) == 1
                assert time.monotonic() - started < 5
            finally:
                release.set()
    assert "still running" in capsys.readouterr().err
