"""Percentile guard, geometric mean, spread."""

import pytest

from harness.stats import (
    InsufficientSamples,
    geomean,
    median,
    percentile,
    quartile_spread,
)


def test_percentile_refuses_fewer_than_ten_samples_beyond_it():
    with pytest.raises(InsufficientSamples):
        percentile(list(range(199)), 95)  # 9.95 beyond
    assert percentile(list(range(200)), 95) == pytest.approx(189.05)
    with pytest.raises(InsufficientSamples):
        percentile(list(range(999)), 99)
    assert percentile(list(range(1000)), 99) == pytest.approx(989.01)


def test_non_strict_percentile_interpolates_low_sample_tails():
    assert percentile([1.0, 2.0, 3.0, 4.0], 95, strict=False) == pytest.approx(3.85)
    assert percentile([7.0], 95, strict=False) == 7.0


def test_percentile_is_for_tails_only():
    with pytest.raises(ValueError):
        percentile(list(range(100)), 50)
    with pytest.raises(InsufficientSamples):
        percentile([], 95, strict=False)


def test_median_and_geomean():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert geomean([1.0, 100.0]) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
    with pytest.raises(InsufficientSamples):
        median([])


def test_quartile_spread_matches_the_drivers_definition():
    import statistics

    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
