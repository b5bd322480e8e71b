"""Percentile and sample-count helpers."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfstats import (  # noqa: E402
    beyond,
    harrell_davis,
    median,
    nearest_rank,
    percentile_summary,
    rolling_median,
    slope,
)


def test_nearest_rank_returns_measured_samples():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(values, 0.5) == 3.0
    assert nearest_rank(values, 0.9) == 5.0
    assert nearest_rank(values, 1.0) == 5.0
    assert nearest_rank([7.0], 0.9) == 7.0


def test_p90_of_100_samples_has_ten_beyond_it():
    values = [float(i) for i in range(1, 101)]
    summary = percentile_summary(values, 0.9)
    assert summary == {"p50": 50.0, "p90": 90.0, "n": 100, "beyond": 10}
    assert sum(v > summary["p90"] for v in values) == summary["beyond"]


@pytest.mark.parametrize("n", [1, 9, 10, 99, 101, 152])
def test_beyond_counts_samples_above_the_percentile(n):
    values = [float(i) for i in range(n)]
    p90 = nearest_rank(values, 0.9)
    assert beyond(n, 0.9) == sum(v > p90 for v in values)


def test_invalid_inputs_are_rejected():
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0.0)


def test_median_and_slope():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert slope([1.0, 3.0, 5.0, 7.0]) == pytest.approx(2.0)
    assert slope([4.0]) == 0.0


def test_rolling_median_ignores_a_lone_outlier_and_clips_at_the_ends():
    values = [1.0, 1.0, 9.0, 1.0, 1.0, 2.0, 2.0]
    assert rolling_median(values, 1) == [1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0]
    assert rolling_median(values, 0) == values


def test_harrell_davis_weights_every_order_statistic():
    values = [float(i) for i in range(1, 102)]
    # Symmetric weights around the middle rank of a symmetric sample.
    assert harrell_davis(values, 0.5) == pytest.approx(51.0)
    assert harrell_davis([7.0] * 40, 0.9) == pytest.approx(7.0)
    assert harrell_davis([3.0], 0.9) == pytest.approx(3.0)
    p90 = harrell_davis(values, 0.9)
    assert nearest_rank(values, 0.85) < p90 < nearest_rank(values, 0.95)


def test_harrell_davis_moves_smoothly_across_a_gap():
    # 90 fast and 10 slow samples: nearest rank jumps from 10 to 50 when
    # one sample crosses the gap; the estimate moves by a fraction.
    before = [10.0] * 90 + [50.0] * 10
    after = [10.0] * 89 + [50.0] * 11
    assert nearest_rank(after, 0.9) - nearest_rank(before, 0.9) == 40.0
    assert 0 < harrell_davis(after, 0.9) - harrell_davis(before, 0.9) < 20.0


def test_harrell_davis_rejects_invalid_inputs():
    with pytest.raises(ValueError):
        harrell_davis([], 0.5)
    with pytest.raises(ValueError):
        harrell_davis([1.0], 1.0)
