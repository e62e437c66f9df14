"""CI service smoke: fig3 grid through the client SDK, with parity.

Run against a live ``repro serve`` instance:

    python scripts/service_smoke.py --url http://127.0.0.1:8737 \
        --phase cold --out cold.json

* fetches the fig3 evaluation grid via ``ServiceClient.run_many``;
* asserts the server-side engine counters match the phase — ``cold``
  simulated every unique spec, ``warm`` (a restart over the same
  result cache) simulated **zero**;
* resubmits the grid and asserts the server answers it from its memo
  in the submit reply itself (``done``, same results, no simulation);
* recomputes the grid with an in-process ``Engine.run_many`` and
  asserts the wire results are byte-identical (``RunStats.to_dict``) —
  the same stats the ``repro run fig3`` / ``tables`` output renders;
* writes the results keyed by spec digest to ``--out`` (sorted,
  canonical JSON) so CI can ``cmp`` the cold and warm phases.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine import Engine  # noqa: E402
from repro.harness.experiments import fig3_sweep  # noqa: E402
from repro.service import ServiceClient  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--url", default="http://127.0.0.1:8737")
    parser.add_argument("--phase", choices=("cold", "warm"),
                        required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    specs = fig3_sweep().specs()  # the canonical `repro run fig3` grid
    unique = list(dict.fromkeys(specs))
    client = ServiceClient(args.url)

    remote = client.run_many(specs, timeout=600)
    engine_stats = client.stats()["engine"]
    print(f"[smoke] {args.phase}: fetched {len(remote)} specs; "
          f"server engine counters: {engine_stats}")

    if args.phase == "cold":
        assert engine_stats["simulations"] == len(unique), (
            f"cold service should have simulated {len(unique)} specs, "
            f"reported {engine_stats['simulations']}")
    else:
        assert engine_stats["simulations"] == 0, (
            f"warm service rerun must report simulations=0, got "
            f"{engine_stats['simulations']}")
        assert engine_stats["disk_hits"] == len(unique)

    resubmitted = client.submit(specs)
    assert resubmitted.status == "done", (
        f"a memoized grid must be done in its submit reply, got "
        f"{resubmitted.status!r}")
    inline = resubmitted.stats_by_spec()
    mismatched = [spec.label() for spec in unique
                  if inline[spec].to_dict() != remote[spec].to_dict()]
    assert not mismatched, f"inline reply differs from fetch: {mismatched}"
    resimulated = client.stats()["engine"]["simulations"]
    assert resimulated == engine_stats["simulations"], (
        f"resubmission simulated: {engine_stats['simulations']} -> "
        f"{resimulated}")
    print(f"[smoke] {args.phase}: resubmitted grid answered inline "
          f"(job {resubmitted.job_id} done at submit)")

    local = Engine(use_cache=False, jobs=2).run_many(specs)
    mismatched = [spec.label() for spec in unique
                  if remote[spec].to_dict() != local[spec].to_dict()]
    assert not mismatched, f"wire/in-process divergence: {mismatched}"
    print(f"[smoke] {args.phase}: wire results byte-identical to "
          f"in-process Engine.run_many on all {len(unique)} specs")

    payload = {spec.digest(): remote[spec].to_dict()
               for spec in unique}
    Path(args.out).write_text(
        json.dumps(payload, sort_keys=True, indent=1) + "\n")
    print(f"[smoke] wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
