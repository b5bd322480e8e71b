"""Order statistics for the benchmark's timings (no numpy, no repro).

Raw percentiles use the nearest-rank definition, so every value is one
of the measured samples, and each comes with the number of samples that
lie beyond it.  The reported end-to-end percentiles use the
Harrell-Davis estimator, a weighted mean of all order statistics: where
a tail is sparse (a p90 between two jobs 25% apart) it moves smoothly
with the samples instead of jumping from one to the next.
"""

from __future__ import annotations

import math


def nearest_rank(values: list[float], q: float) -> float:
    """The ``q``-quantile (0 < q <= 1) of ``values`` by nearest rank."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-quantile."""
    return n - max(1, math.ceil(q * n)) if n else 0


def percentile_summary(values: list[float], q: float = 0.9) -> dict:
    """Median, the ``q`` percentile, the sample count and the tail size.

    The tail size says how many samples the percentile rests on: a p90
    with fewer than ten samples beyond it is noise, not a tail.
    """
    return {
        "p50": nearest_rank(values, 0.5),
        f"p{round(q * 100)}": nearest_rank(values, q),
        "n": len(values),
        "beyond": beyond(len(values), q),
    }


def harrell_davis(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the ``q``-quantile (0 < q < 1).

    The ``i``-th smallest of ``n`` samples is weighted by the mass that
    the Beta(q (n + 1), (1 - q) (n + 1)) distribution puts on
    ``((i - 1) / n, i / n]``.
    """
    if not values:
        raise ValueError("no samples")
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cdf = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def _beta_cdf(x: float, a: float, b: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        a * math.log(x)
        + b * math.log1p(-x)
        + math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(x, a, b) / a
    return 1.0 - front * _beta_fraction(1.0 - x, b, a) / b


def _beta_fraction(x: float, a: float, b: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method."""
    tiny = 1e-300

    def clamp(v: float) -> float:
        return v if abs(v) > tiny else tiny

    c, d = 1.0, 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 1000):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        for coeff in (even, odd):
            d = 1.0 / clamp(1.0 + coeff * d)
            c = clamp(1.0 + coeff / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def median(values: list[float]) -> float:
    """The middle value (mean of the two middle ones for even counts)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def rolling_median(values: list[float], half_width: int) -> list[float]:
    """Median of each value's neighbourhood of ``half_width`` on each side."""
    n = len(values)
    return [
        median(values[max(0, i - half_width) : min(n, i + half_width + 1)])
        for i in range(n)
    ]


def slope(ys: list[float]) -> float:
    """Least-squares slope of ``ys`` against their index (0 for < 2 points)."""
    n = len(ys)
    if n < 2:
        return 0.0
    mean_x = (n - 1) / 2
    mean_y = sum(ys) / n
    num = sum((i - mean_x) * (y - mean_y) for i, y in enumerate(ys))
    den = sum((i - mean_x) ** 2 for i in range(n))
    return num / den
