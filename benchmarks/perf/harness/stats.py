"""Summary statistics: medians, guarded tail percentiles, geometric means."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: A tail percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


class InsufficientSamples(ValueError):
    """A tail percentile was asked of too few samples to support it."""


def median(samples: Sequence[float]) -> float:
    if len(samples) == 0:
        raise InsufficientSamples("median of no samples")
    return float(statistics.median(samples))


def percentile(samples: Sequence[float], q: float, strict: bool = True) -> float:
    """The ``q``-th percentile (linear interpolation between order statistics).

    With ``strict`` the call refuses (raises :class:`InsufficientSamples`)
    unless at least :data:`MIN_SAMPLES_BEYOND` samples lie beyond the
    percentile, i.e. ``len(samples) * (1 - q/100) >= 10``.  Non-strict
    calls are for workloads that cannot produce that many samples in a
    run; their tails are low-sample estimates and are labelled as such.
    """
    if not 50.0 < q < 100.0:
        raise ValueError(f"tail percentile must be in (50, 100), got {q}")
    n = len(samples)
    if n == 0:
        raise InsufficientSamples(f"p{q:g} of no samples")
    if strict and n * (1.0 - q / 100.0) < MIN_SAMPLES_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} needs {MIN_SAMPLES_BEYOND} samples beyond it; "
            f"{n} samples leave {n * (1.0 - q / 100.0):.1f}"
        )
    ordered = sorted(samples)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise InsufficientSamples("geometric mean of no values")
    if any(v <= 0.0 for v in values):
        raise ValueError(f"geometric mean needs positive values, got {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's
    steadiness measure, ``statistics.quantiles(values, n=4)``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else math.inf
