"""Order statistics for benchmark samples.

Percentiles are nearest-rank on integer percents, so the rank arithmetic is
exact: the p-th percentile of ``n`` samples is the ``ceil(p * n / 100)``-th
smallest, and ``n - ceil(p * n / 100)`` samples rank beyond it.  A tail
percentile is only reported when at least :data:`MIN_TAIL_SAMPLES` samples
rank beyond it.
"""

from __future__ import annotations

import statistics
from typing import Sequence

#: samples that must rank beyond a reported tail percentile.
MIN_TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """A tail percentile was asked of too few samples to support it."""


def _rank(n: int, percent: int) -> int:
    if not 0 < percent <= 100:
        raise ValueError(f"percent out of (0, 100]: {percent}")
    return max(1, -(-percent * n // 100))


def percentile(values: Sequence[float], percent: int) -> float:
    """Nearest-rank ``percent``-th percentile of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), percent) - 1]


def samples_beyond(n: int, percent: int) -> int:
    """How many of ``n`` samples rank above the ``percent``-th percentile."""
    return n - _rank(n, percent)


def tail_percentile(values: Sequence[float], percent: int = 95) -> float:
    """:func:`percentile`, refusing when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    beyond = samples_beyond(len(values), percent)
    if beyond < MIN_TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{percent} of {len(values)} samples has {beyond} beyond it "
            f"(need {MIN_TAIL_SAMPLES})"
        )
    return percentile(values, percent)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))
