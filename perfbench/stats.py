"""Order statistics used by the benchmark's metrics."""

from __future__ import annotations

import math

MIN_BEYOND = 10


def nearest_rank(values, q: float) -> float:
    """The q-th percentile (0 < q <= 100) by the nearest-rank rule."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(xs) / 100))
    return xs[rank - 1]


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it.

    With ``n`` samples the nearest-rank q-th percentile is sample
    ceil(q n / 100), so q = floor(100 (n - 10) / n) leaves n - 10 or fewer at
    or below it.  Below 20 samples that percentile falls under the median;
    the tail is then the median (and says so through the percentile).
    """
    if n < 2 * MIN_BEYOND:
        return 50
    return (100 * (n - MIN_BEYOND)) // n
