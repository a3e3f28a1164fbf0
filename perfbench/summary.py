"""The benchmark's own arithmetic: percentiles, spreads and span self time.

Kept free of any import from the engine so the tests in ``tests/`` can
check it on hand-made numbers.
"""

from __future__ import annotations

import math
import statistics

#: A percentile is trusted only when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10


def nearest_rank(values: list[float], q: float) -> float:
    """The ``q``-th percentile by the nearest-rank rule.

    The smallest sample with at least ``q`` percent of all samples at or
    below it.  Failed operations enter as ``math.inf``, so they sort past
    every real latency.
    """
    if not values:
        raise ValueError("no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie past the nearest-rank ``q``-th percentile."""
    if n <= 0:
        return 0
    return n - max(1, math.ceil(q / 100 * n))


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least :data:`MIN_BEYOND` beyond ``q``."""
    return samples_beyond(n, q) >= MIN_BEYOND


def quartile_spread(values: list[float]) -> float:
    """Distance between first and third quartile as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` (the exclusive method), the
    rule the benchmark's acceptance check is stated in.
    """
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    Intervals may overlap each other (children running on two threads at
    once) and may stick out of ``[lo, hi]``; only the clipped union counts.
    """
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` hold ``(span_id, parent_id, name, start, end, ...)``.  A
    child may run on another thread than its parent; children that
    overlap one another are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[1]
        if parent is not None:
            children.setdefault(parent, []).append((span[3], span[4]))
    out = {}
    for span in spans:
        sid, start, end = span[0], span[3], span[4]
        out[sid] = (end - start) - covered(children.get(sid, []), start, end)
    return out
