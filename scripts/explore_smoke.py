"""CI explore smoke: an epsilon-constraint query over the service.

Run against a live ``repro serve`` instance:

    python scripts/explore_smoke.py --url http://127.0.0.1:8737 \
        --phase cold --out cold.json

* runs the acceptance query — cheapest register-file area with
  slowdown within 5% of the best, over codings x {vector, ideal} on
  two workloads — with ``explore(ServiceClient(url), query)``: the
  search runs here and sends each rung to the server as one
  ``/v1/jobs`` job;
* asserts the server-side engine counters match the phase: ``cold``
  simulated exactly the specs the exploration requested, ``warm`` (a
  restart over the same result cache) simulated **zero**;
* writes the frontier, optimum, bound and search counters to ``--out``
  (sorted, canonical JSON) so CI can ``cmp`` the cold and warm phases
  — the answer must be bit-identical across the restart.
"""

import argparse
import json
import sys
from contextlib import closing
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.explore import Constraint, ExploreQuery, explore  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

BENCHMARKS = ("gsm_encode", "mpeg2_decode")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--url", default="http://127.0.0.1:8737")
    parser.add_argument("--phase", choices=("cold", "warm"),
                        required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    query = ExploreQuery(
        codings=("mmx", "mom", "mom3d"),
        memsystems=("vector", "ideal"),
        benchmarks=BENCHMARKS,
        constraint=Constraint("slowdown", within=0.05),
        minimize="area_tracks")
    with closing(ServiceClient(args.url)) as client:
        report = explore(client, query)
        engine_stats = client.stats()["engine"]
    assert report.frontier and report.best is not None, report
    search = report.stats
    print(f"[smoke] {args.phase}: frontier={len(report.frontier)} "
          f"best={report.best.candidate.label()} "
          f"specs={search.specs_requested}/{search.exhaustive_specs}; "
          f"server engine counters: {engine_stats}")

    if args.phase == "cold":
        assert engine_stats["simulations"] == search.specs_requested, (
            f"cold explore requested {search.specs_requested} specs but "
            f"the engine simulated {engine_stats['simulations']}")
    else:
        assert engine_stats["simulations"] == 0, (
            f"warm explore re-query must report simulations=0, got "
            f"{engine_stats['simulations']}")

    payload = {
        "frontier": [record.to_dict() for record in report.frontier],
        "best": report.best.to_dict(),
        "bound": report.bound,
        "specs_requested": search.specs_requested,
        "exhaustive_specs": search.exhaustive_specs,
        "candidates_pruned": search.candidates_pruned,
    }
    Path(args.out).write_text(
        json.dumps(payload, sort_keys=True, indent=1) + "\n")
    print(f"[smoke] wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
