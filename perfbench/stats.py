"""Order statistics used by the benchmark's metrics and its spread check."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule: the ceil(q*N)-th smallest."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-quantile's rank."""
    return n - max(1, math.ceil(q * n))


def tail_quantile(n: int) -> float:
    """The percentile report_ms.p90 reports for rounds of n requests.

    0.9 when it keeps MIN_BEYOND samples beyond it; otherwise no percentile
    above the median is supported by the samples, and it is the median.
    """
    return 0.9 if beyond(n, 0.9) >= MIN_BEYOND else 0.5


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
