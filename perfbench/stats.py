"""Order statistics used by the benchmark's reports.

Percentiles use the nearest-rank definition on the sorted samples, so a
reported percentile is always one measured value. A run reports the 95th
percentile of its request latencies only with at least ten samples above
it, which takes MIN_REQUESTS requests; the runner makes at least that many
in every run, so the reported rank never depends on throughput.
"""

import math
import statistics

MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n samples."""
    return n - max(1, math.ceil(p / 100.0 * n))


def min_samples(p, beyond=MIN_BEYOND):
    """Fewest samples whose nearest-rank p-th percentile (p < 100) has at
    least `beyond` samples above it."""
    n = 1
    while samples_beyond(n, p) < beyond:
        n += 1
    return n


MIN_REQUESTS = min_samples(95)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf
