"""Compare two end-to-end benchmark results, metric by metric.

    python3 benchmarks/e2e/compare.py base.json change.json

Each file is what ``run.py --out`` wrote (one set of runs) or several
such sets under ``"sets"``, as in ``baseline.json``.  For every workload
x end-to-end metric it prints both sides' medians with their quartiles,
the bound and a verdict:

* ``improved``: better than the base by more than the bound;
* ``within bound``: neither better nor worse by more than the bound;
* ``worse``: worse than the base by more than the bound;
* ``unresolved``: the base's own spread exceeds the bound, so a
  difference that size cannot be told from noise -- unless every change
  run beats every base run, which reads ``improved``.

A side's runs are its sets' medians, or a single set's own samples.
Its median and quartiles are those of its runs, and the base's spread
is their quartile distance as a share of their median.  A single set's
spread sees the noise within one run but not the drift between runs,
so a claim should rest on several sets per side.

It also says whether each workload's simulated-statistics fingerprint
is identical.  Exits 1 if any row is worse.
"""

from __future__ import annotations

import json
import sys

from summary import summarize


def side(summaries: list[dict]) -> dict:
    """Median, quartiles, runs and spread of one side of a row, from the
    metric's summary in each of that side's sets."""
    runs = (summaries[0]["samples"] if len(summaries) == 1
            else [summary["median"] for summary in summaries])
    found = summarize(runs)
    return {"median": found["median"], "q1": found["q1"], "q3": found["q3"],
            "runs": runs, "spread": _share(found["q3"] - found["q1"],
                                           found["median"])}


def _share(width: float, median: float) -> float:
    if width == 0:
        return 0.0
    return width / abs(median) if median else float("inf")


def verdict(base: dict, change: dict, bound: float, better: str) -> str:
    """One row's verdict (see the module docstring) from two sides."""
    sign = 1 if better == "lower" else -1  # positive delta = worse
    if base["spread"] > bound:
        if max(sign * v for v in change["runs"]) < \
                min(sign * v for v in base["runs"]):
            return "improved"
        return "unresolved"
    difference = sign * (change["median"] - base["median"])
    if base["median"]:
        delta = difference / abs(base["median"])
    else:
        delta = 0.0 if difference == 0 else \
            float("inf") if difference > 0 else float("-inf")
    if delta > bound:
        return "worse"
    if -delta > bound:
        return "improved"
    return "within bound"


def load(path: str) -> list[dict]:
    """The sets of runs in one results file."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return data["sets"] if "sets" in data else [data]


def compare(base: list[dict], change: list[dict]) -> tuple[list[str], int]:
    """Report lines and the number of worse rows."""
    lines, worse = [], 0
    lines.append(f"{'workload':12s} {'metric':12s} "
                 f"{'base median [q1..q3]':30s} "
                 f"{'change median [q1..q3]':30s} {'bound':>6s}  verdict")
    for workload, entry in base[0]["workloads"].items():
        theirs = [s["workloads"][workload] for s in change
                  if workload in s["workloads"]]
        if not theirs:
            lines.append(f"{workload:12s} missing from the change")
            continue
        for name, summary in entry["metrics"].items():
            mine = [s["workloads"][workload]["metrics"][name] for s in base
                    if name in s["workloads"].get(workload, {}).get(
                        "metrics", {})]
            other = [t["metrics"][name] for t in theirs
                     if name in t["metrics"]]
            if not other:
                lines.append(f"{workload:12s} {name:12s} missing from the "
                             f"change")
                continue
            base_side, change_side = side(mine), side(other)
            row = verdict(base_side, change_side, summary["bound"],
                          summary["better"])
            worse += row == "worse"
            lines.append(
                f"{workload:12s} {name:12s} "
                f"{_cell(base_side, summary['unit']):30s} "
                f"{_cell(change_side, summary['unit']):30s} "
                f"{summary['bound']:>6.0%}  {row}")
        prints = {json.dumps(s["workloads"][workload]["fingerprint"],
                             sort_keys=True) for s in base}
        prints |= {json.dumps(t["fingerprint"], sort_keys=True)
                   for t in theirs}
        lines.append(f"{workload:12s} fingerprint  "
                     f"{'identical' if len(prints) == 1 else 'DIFFERS'}")
    return lines, worse


def _cell(summary: dict, unit: str) -> str:
    return (f"{summary['median']:.4g} [{summary['q1']:.4g}.."
            f"{summary['q3']:.4g}] {unit}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines, worse = compare(load(argv[0]), load(argv[1]))
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
