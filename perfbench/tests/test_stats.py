import pytest

from perfbench import stats


def test_nearest_rank_percentiles():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 95) == 7.0


def test_rank_arithmetic_is_exact():
    # 0.95 * 200 is 190.00000000000003 in floating point; the rank is 190.
    assert stats.samples_beyond(200, 95) == 10
    assert stats.samples_beyond(199, 95) == 9
    assert stats.samples_beyond(20, 50) == 10


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(list(range(200)), 95) == 189
    with pytest.raises(stats.TooFewSamples):
        stats.tail_percentile(list(range(199)), 95)


def test_median_and_empty_inputs():
    assert stats.median([3.0, 1.0, 2.0, 10.0]) == 2.5
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.median([])
