"""Statistics helpers of the benchmark: percentiles, due-time latency, self time.

Everything here is pure Python over plain numbers so the helpers can be unit
tested without running a workload (see ``test_stats.py``).
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: Fewest samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by nearest rank, refusing thin tails.

    The rank is ``ceil(q/100 * n)``; the samples beyond it number
    ``n - rank`` and must be at least :data:`MIN_BEYOND`, so a p99 needs
    1000 samples.  A failed request enters as ``inf`` and so sorts beyond
    every success: failures count as missing any latency limit.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples leaves {beyond} beyond it; "
            f"at least {MIN_BEYOND} are required"
        )
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """The median (``inf`` entries sort last, like in :func:`percentile`)."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def due_latencies(
    due: Sequence[float], done: Sequence[float | None]
) -> list[float]:
    """Latency of each request from when it was *due*, not when it was sent.

    ``done[i]`` is the completion time of a successful request and ``None``
    for a failed or refused one, whose latency is ``inf``.  Timing from the
    due time charges a stalled generator's delay to every request that
    queued behind the stall, as an open-loop user would see it.
    """
    if len(due) != len(done):
        raise ValueError("due and done must have the same length")
    return [
        math.inf if finished is None else finished - start
        for start, finished in zip(due, done)
    ]


def within_limit(latencies: Iterable[float], limit: float) -> int:
    """How many latencies meet ``limit`` (failures, at ``inf``, never do)."""
    return sum(1 for latency in latencies if latency <= limit)


def goodput(latencies: Sequence[float], limit: float, seconds: float) -> float:
    """Answers that met ``limit``, per second of the phase."""
    if seconds <= 0:
        raise ValueError("the phase must last a positive time")
    return within_limit(latencies, limit) / seconds


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def clipped(
    intervals: Iterable[tuple[float, float]], start: float, end: float
) -> list[tuple[float, float]]:
    """The parts of ``intervals`` that fall inside ``[start, end]``."""
    inside = []
    for low, high in intervals:
        low, high = max(low, start), min(high, end)
        if high > low:
            inside.append((low, high))
    return inside


def self_time(
    start: float, end: float, children: Iterable[tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its children cover.

    Children may overlap each other (work handed to other threads) or spill
    past the parent; only their union inside the parent is subtracted.
    """
    return (end - start) - union_length(clipped(children, start, end))


def windows(values: Sequence[float], size: int = 1000) -> list[list[float]]:
    """Consecutive windows of at least ``size`` values each (one if too few).

    A metric taken per window and then as the median over windows is not
    moved by one window that a burst of arrivals or a host stall dominated.
    """
    count = max(1, len(values) // size)
    bounds = [round(index * len(values) / count) for index in range(count + 1)]
    return [list(values[low:high]) for low, high in zip(bounds, bounds[1:])]
