import stats


def test_tail_needs_ten_samples_beyond():
    assert stats.tail(range(19)) is None
    assert stats.tail(range(20)) == (50.0, 9, 10)


def test_tail_takes_the_highest_percentile_with_ten_beyond():
    assert stats.tail(range(1, 101)) == (90.0, 90, 10)
    assert stats.tail(range(1, 1001)) == (99.0, 990, 10)
    assert stats.tail(range(1, 10001)) == (99.9, 9990, 10)
    percentile, value, beyond = stats.tail(range(1, 36))
    assert (percentile, value, beyond) == (70.0, 25, 10)


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
    assert stats.tail(values) == stats.tail(sorted(values))
