"""Sample summaries shared by ``run.py`` and ``compare.py``.

A measurement is reported as its median, quartiles and sample count,
and -- once there are enough samples -- its tail: the highest
percentile that still has at least ``TAIL_BEYOND`` samples beyond it.
"""

from __future__ import annotations

import statistics

#: samples that must lie beyond a reported tail percentile
TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest percentile with at least
    ``TAIL_BEYOND`` samples beyond it, or None for too few samples."""
    ordered = sorted(samples)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return None
    return (100.0 * (count - TAIL_BEYOND) / count,
            ordered[count - TAIL_BEYOND - 1])


def summarize(samples) -> dict:
    """Median, quartiles (as ``statistics.quantiles(n=4)`` gives them),
    count and, when defined, the tail of a non-empty sample list."""
    values = [float(value) for value in samples]
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    out = {"median": median, "q1": q1, "q3": q3, "n": len(values)}
    found = tail(values)
    if found is not None:
        out["tail_pct"], out["tail"] = found
    return out
