"""Seeded open-loop load generation.

Arrivals follow a Poisson process: the schedule is fixed before the run from
the workload seed, and each request is sent when it is due whether or not
earlier ones have been answered, so a slow server builds a queue instead of
receiving less load.  Latency is timed from the due time (see
:func:`stats.due_latencies`) and the generator's own lateness is recorded.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np


@dataclass
class Arrival:
    """One scheduled request and, after the run, what became of it."""

    index: int
    offset: float
    tenant: str
    query: str
    epsilon: float
    phase: str
    due: float = 0.0
    sent: float = 0.0
    done: float | None = None
    answer: Any = None
    error: BaseException | None = field(default=None, repr=False)


def poisson_offsets(rng: np.random.Generator, rate: float, seconds: float) -> list[float]:
    """Arrival times in ``[0, seconds)`` of a Poisson process of ``rate``/s.

    The process is conditioned on its expected count, ``round(rate *
    seconds)`` arrivals placed uniformly at random: gaps stay exponential
    in distribution, but the number of requests, and so the offered load,
    no longer varies from seed to seed.
    """
    count = round(rate * seconds)
    return sorted(float(offset) for offset in rng.uniform(0.0, seconds, size=count))


def run_open_loop(
    arrivals: Sequence[Arrival],
    send: Callable[[Arrival], None],
    senders: int = 1,
) -> float:
    """Send every arrival at its due time from ``senders`` threads.

    ``send`` either completes the request (a blocking client) or arranges
    for ``arrival.done`` to be set later (a future's callback); it records
    failures on the arrival itself.  Returns the phase start time, the zero
    of every arrival's ``offset``.
    """
    lock = threading.Lock()
    cursor = iter(arrivals)
    start = time.perf_counter() + 0.05

    def sender() -> None:
        while True:
            with lock:
                arrival = next(cursor, None)
            if arrival is None:
                return
            arrival.due = start + arrival.offset
            delay = arrival.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            arrival.sent = time.perf_counter()
            send(arrival)

    threads = [
        threading.Thread(target=sender, name=f"perfbench-sender-{index}")
        for index in range(senders)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start
