"""Order statistics shared by the run loop, the compare mode and the tests."""

from __future__ import annotations

import statistics

# Candidate tail percentiles, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values) -> dict:
    """The highest ladder percentile with at least ten samples beyond it.

    A sample is beyond percentile ``p`` when it is strictly greater than
    the value at ``p``.  With fewer than twenty samples no ladder rung has
    ten beyond it; the maximum is reported then, as percentile 100 with
    ``rule_met`` false, so the record says the rule could not be applied.
    """
    xs = sorted(values)
    for p in reversed(TAIL_LADDER):
        value = percentile(xs, p)
        beyond = sum(1 for x in xs if x > value)
        if beyond >= TAIL_MIN_BEYOND:
            return {"value": value, "percentile": p, "beyond": beyond, "rule_met": True}
    return {"value": xs[-1], "percentile": 100.0, "beyond": 0, "rule_met": False}


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 values)."""
    xs = list(values)
    if len(xs) < 2:
        return 0.0
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / abs(med) if med else float("inf")
