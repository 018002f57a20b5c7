"""Summaries of latency samples: median and a sample-backed tail."""

from __future__ import annotations

import statistics
from typing import Sequence

#: A tail percentile is reported only with this many samples beyond it.
TAIL_MARGIN = 10


def median(samples: Sequence[float]) -> float | None:
    return statistics.median(samples) if samples else None


def tail(samples: Sequence[float]) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest percentile that still has
    ``TAIL_MARGIN`` samples beyond it, or ``None`` when that percentile
    would not lie above the median (fewer than 21 samples).

    Nearest-rank: the sample at sorted index ``i`` is percentile
    ``100 * (i + 1) / n`` and has ``n - 1 - i`` samples beyond it.
    """
    n = len(samples)
    index = n - 1 - TAIL_MARGIN
    if index < 0 or 2 * (index + 1) <= n:
        return None  # no percentile above the median qualifies
    return 100.0 * (index + 1) / n, sorted(samples)[index]


def summarize(samples: Sequence[float]) -> dict:
    """Median, tail and sample count of one timing, for the detail record."""
    summary: dict = {"n": len(samples), "p50_s": median(samples)}
    found = tail(samples)
    if found is not None:
        summary["tail_pct"], summary["tail_s"] = found
    return summary
