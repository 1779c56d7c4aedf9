import pytest

import reference


def test_reference_work_takes_time():
    assert reference.run() > 0


def test_slowdown_averages_the_timings_around_an_item():
    yardstick = reference.Yardstick()
    yardstick.times = [reference.REFERENCE_S, 3 * reference.REFERENCE_S,
                       2 * reference.REFERENCE_S]
    assert yardstick.slowdown(0) == pytest.approx(2.0)
    assert yardstick.slowdown(1) == pytest.approx(2.5)
    with pytest.raises(IndexError):
        yardstick.slowdown(2)


def test_mark_numbers_items_in_order():
    yardstick = reference.Yardstick()
    assert [yardstick.mark() for _ in range(3)] == [0, 1, 2]
    assert len(yardstick.times) == 3 and all(t > 0 for t in yardstick.times)
