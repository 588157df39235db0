"""Self-test of the benchmark's own arithmetic (no Spark needed).

    python3 -m pytest perfbench/test_measure.py

``run.py`` also runs these before every measurement.
"""
import math

from measure import (
    MIN_BEYOND, beyond, covered, geomean, percentile, self_time, tail,
    union_length,
)


def _raises(fn, *args) -> bool:
    try:
        fn(*args)
    except ValueError:
        return True
    return False


def test_nearest_rank_percentile():
    xs = [float(i) for i in range(1, 101)]  # 1..100
    assert percentile(xs, 0.5) == 50.0
    assert percentile(xs, 0.9) == 90.0
    assert percentile(xs, 1.0) == 100.0
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile([7.0], 0.67) == 7.0
    assert _raises(percentile, [], 0.5)


def test_tail_needs_ten_samples_beyond():
    assert MIN_BEYOND == 10
    # p90 is reported only when >= 10 samples lie beyond it
    assert beyond(100, 0.9) == 10 and tail(list(range(100)), 0.9) == 89
    assert beyond(99, 0.9) == 9 and _raises(tail, list(range(99)), 0.9)
    # two passes of the 16 queries: p67 has exactly 10 beyond, p75 only 8
    assert beyond(32, 0.67) == 10 and tail(list(range(32)), 0.67) == 21
    assert beyond(32, 0.75) == 8 and _raises(tail, list(range(32)), 0.75)
    assert _raises(tail, list(range(30)), 0.67)


def test_geomean():
    assert math.isclose(geomean([2.0, 8.0]), 4.0)
    assert _raises(geomean, [1.0, 0.0])


def test_interval_union():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2
    assert union_length([(0, 2), (1, 3)]) == 3  # overlap counted once
    assert union_length([(0, 4), (1, 2)]) == 4  # nested
    assert union_length([(2, 3), (0, 1), (0.5, 2.5)]) == 3


def test_self_time_subtracts_covered_children():
    # span 0..10, children 1..3 and 2..5 (overlapping) and 9..12 (runs past)
    kids = [(1.0, 3.0), (2.0, 5.0), (9.0, 12.0)]
    assert covered(0.0, 10.0, kids) == 5.0
    assert self_time(0.0, 10.0, kids) == 5.0
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(11.0, 12.0)]) == 10.0  # outside the span


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
    print("ok")
