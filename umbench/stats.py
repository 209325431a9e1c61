"""Summary statistics for the benchmark's samples.

Timings are reported as a median plus the highest tail percentile that
still has at least ``MIN_BEYOND`` samples beyond it, always with the
sample count, so a p99 over a dozen samples is never printed.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10
#: Tail percentiles tried from the highest down.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(pct: float, count: int) -> int:
    """Nearest rank (1-based); rounding first keeps 99.9% of 10000 at
    9990 instead of the float product's 9990.000000000002."""
    return max(1, math.ceil(round(pct * count / 100.0, 6)))


def quantile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of already-sorted samples."""
    if not ordered:
        raise ValueError("quantile of no samples")
    return ordered[min(_rank(pct, len(ordered)), len(ordered)) - 1]


def supported(count: int, pct: float) -> bool:
    """True when ``count`` samples leave ``MIN_BEYOND`` beyond ``pct``."""
    return count - _rank(pct, count) >= MIN_BEYOND


def tail(samples: Sequence[float]) -> Tuple[Optional[float], Optional[float], int]:
    """``(percentile, value, count)`` for the highest percentile with at
    least ``MIN_BEYOND`` samples beyond it; ``(None, None, count)`` when
    even the median lacks that support."""
    ordered = sorted(samples)
    count = len(ordered)
    for pct in TAIL_PERCENTILES:
        if supported(count, pct):
            return pct, quantile(ordered, pct), count
    return None, None, count


def median(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
