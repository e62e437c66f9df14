"""Seeded inputs of the end-to-end benchmark.

Everything the program under test receives is generated here from the
run's ``--seed``: the same seed gives the same inputs.  Specs travel as
plain ``RunSpec.to_dict()`` dicts so this module imports nothing from
``repro`` and the child processes rebuild them with
``RunSpec.from_dict``.
"""

from __future__ import annotations

import random

#: the five paper workloads, in the paper's plot order
BENCHMARKS = ("jpeg_encode", "jpeg_decode", "mpeg2_decode", "mpeg2_encode",
              "gsm_encode")

#: sweep-dse: the two L2 sizes straddle the traces' working sets (64 KiB
#: is smaller than the larger traces' footprints, 2 MiB holds them all)
SWEEP_L2_SIZES = (64 * 1024, 2 * 1024 * 1024)

#: serve-mixed open-loop traffic: requests per second, share of
#: ``GET /v1/results`` queries, specs per job, share of fresh specs.
#: These are synthetic assumptions, not measurements: no trace or log of
#: real service traffic exists to derive them from (README.md,
#: "serve-mixed traffic")
SERVE_RATE = 40.0
SERVE_QUERY_SHARE = 0.1
SERVE_JOB_SIZES = (1, 2, 4)
SERVE_FRESH_SHARE = 0.03
#: fresh specs take an L2 latency from this range (20 is the grid's)
SERVE_FRESH_LATENCIES = range(5, 200)
#: grid specs checked against an in-process engine besides every fresh one
SERVE_CHECK_SAMPLE = 20
#: sweep specs re-simulated on the reference pipeline
SWEEP_CHECK_SAMPLE = 6


def spec(benchmark: str, coding: str, memsys: str, l2_latency: int,
         warm: bool, seed: int, overrides=()) -> dict:
    """One spec in ``RunSpec.to_dict()`` form (overrides sorted)."""
    return {"benchmark": benchmark, "coding": coding, "memsys": memsys,
            "l2_latency": l2_latency, "warm": warm, "seed": seed,
            "overrides": [[name, value] for name, value in sorted(overrides)]}


def sweep_specs(seed: int) -> list[dict]:
    """The sweep-dse grid: 5 benchmarks x {mom, mom3d} x {primed, empty}
    modelled caches x {vector, multibank} x 3 seeded L2 latencies x 2 L2
    sizes = 240 specs over 10 traces, in 20 trace groups of 12."""
    latencies = sorted(random.Random(seed).sample(range(10, 81), 3))
    return [spec(benchmark, coding, memsys, latency, warm, seed,
                 [("l2_size", size)])
            for benchmark in BENCHMARKS
            for coding in ("mom", "mom3d")
            for warm in (True, False)
            for memsys in ("vector", "multibank")
            for latency in latencies
            for size in SWEEP_L2_SIZES]


def sweep_check_sample(seed: int, specs: list[dict]) -> list[dict]:
    """The sweep specs re-simulated with ``timing_model=reference``."""
    return random.Random(f"{seed}:reference").sample(specs,
                                                     SWEEP_CHECK_SAMPLE)


def with_reference(spec_dict: dict) -> dict:
    """The same spec pinned to the scalar reference pipeline."""
    overrides = [tuple(pair) for pair in spec_dict["overrides"]]
    return {**spec_dict, "overrides": [
        [name, value] for name, value in
        sorted(overrides + [("timing_model", "reference")])]}


def spec_key(spec_dict: dict) -> tuple:
    """A hashable identity for a spec dict."""
    return (spec_dict["benchmark"], spec_dict["coding"],
            spec_dict["memsys"], spec_dict["l2_latency"], spec_dict["warm"],
            spec_dict["seed"],
            tuple(tuple(pair) for pair in spec_dict["overrides"]))


def serve_plan(seed: int, grid: list[dict], seconds: float) -> list[dict]:
    """The serve-mixed phase-B request schedule.

    Requests are due every ``1 / SERVE_RATE`` seconds.  One in ten (in
    expectation) is a results query filtered to one benchmark; the rest
    are jobs of 1, 2 or 4 specs drawn from the cached paper ``grid``,
    each replaced with probability ``SERVE_FRESH_SHARE`` by a fresh spec:
    a non-ideal grid spec at a seeded L2 latency no earlier request used.
    """
    rng = random.Random(f"{seed}:serve")
    realistic = [s for s in grid if s["memsys"] != "ideal"]
    used = {spec_key(s) for s in grid}
    plan = []
    for index in range(int(seconds * SERVE_RATE)):
        due = index / SERVE_RATE
        if rng.random() < SERVE_QUERY_SHARE:
            plan.append({"due": due, "kind": "query",
                         "benchmark": rng.choice(BENCHMARKS)})
            continue
        specs, fresh = [], []
        for _ in range(rng.choice(SERVE_JOB_SIZES)):
            if rng.random() < SERVE_FRESH_SHARE:
                while True:
                    candidate = {**rng.choice(realistic), "l2_latency":
                                 rng.choice(SERVE_FRESH_LATENCIES)}
                    if spec_key(candidate) not in used:
                        break
                used.add(spec_key(candidate))
                fresh.append(candidate)
                specs.append(candidate)
            else:
                specs.append(rng.choice(grid))
        plan.append({"due": due, "kind": "job", "specs": specs,
                     "fresh": len(fresh)})
    return plan


def serve_check_sample(seed: int, grid: list[dict],
                       plan: list[dict]) -> list[dict]:
    """Seeded grid specs plus every fresh spec of the plan: the specs
    whose wire results are compared with an in-process engine."""
    sample = random.Random(f"{seed}:check").sample(
        grid, min(SERVE_CHECK_SAMPLE, len(grid)))
    grid_keys = {spec_key(s) for s in grid}
    for request in plan:
        for spec_dict in request.get("specs", ()):
            if spec_key(spec_dict) not in grid_keys:
                sample.append(spec_dict)
    return sample
