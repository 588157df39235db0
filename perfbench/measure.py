"""Arithmetic the benchmark reports with: percentiles and span self time.

Kept free of Spark so that ``test_measure.py`` can check it on its own.
"""
from __future__ import annotations

import math
import statistics

#: a tail percentile is reported only with at least this many samples
#: lying strictly beyond it, so that it is not set by one or two outliers
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a
    ``q`` share of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile level must be in (0, 1], got {q}")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered) - 1e-9)) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank
    ``q`` percentile."""
    return n - max(1, math.ceil(q * n - 1e-9))


def tail(values: list[float], q: float) -> float:
    """The ``q`` percentile, refused when fewer than ``MIN_BEYOND``
    samples lie beyond it."""
    if beyond(len(values), q) < MIN_BEYOND:
        raise ValueError(
            f"p{100 * q:g} of {len(values)} samples has only "
            f"{beyond(len(values), q)} beyond it (need {MIN_BEYOND})"
        )
    return percentile(values, q)


def median(values: list[float]) -> float:
    return statistics.median(values)


def geomean(values: list[float]) -> float:
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def covered(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by ``children`` (clipped to it)."""
    clipped = [(max(a, start), min(b, end)) for a, b in children]
    return union_length([(a, b) for a, b in clipped if b > a])


def self_time(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered(start, end, children)
