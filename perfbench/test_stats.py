"""Tests of the benchmark's own statistics and tracing helpers.

Run with ``python3 -m pytest perfbench/test_stats.py -q`` from the repository
root (the workloads themselves are exercised by running the benchmark).
"""

from __future__ import annotations

import math
import threading
import time

import pytest

from loadgen import Arrival, poisson_offsets, run_open_loop
from spans import Tracer
from stats import (
    due_latencies,
    goodput,
    median,
    percentile,
    self_time,
    union_length,
    windows,
    within_limit,
)

import numpy as np


class TestPercentileNeedsTenBeyond:
    def test_p99_of_1000_samples_is_the_990th(self):
        values = list(range(1, 1001))
        assert percentile(values, 99) == 990

    def test_p99_of_999_samples_is_refused(self):
        with pytest.raises(ValueError, match="at least 10"):
            percentile(list(range(999)), 99)

    def test_median_needs_twenty_samples(self):
        assert percentile(list(range(20)), 50) == 9
        with pytest.raises(ValueError):
            percentile(list(range(19)), 50)

    def test_order_of_samples_does_not_matter(self):
        values = list(range(2000))
        shuffled = list(np.random.default_rng(0).permutation(values))
        assert percentile(shuffled, 99) == percentile(values, 99) == 1979


class TestWindows:
    def test_each_window_supports_a_p99(self):
        parts = windows(list(range(3060)))
        assert [len(part) for part in parts] == [1020, 1020, 1020]
        assert all(percentile(part, 99) for part in parts)
        assert sum(parts, []) == list(range(3060))

    def test_too_few_values_stay_one_window(self):
        assert windows([1.0, 2.0]) == [[1.0, 2.0]]
        assert [len(part) for part in windows(list(range(2999)))] == [1500, 1499]


class TestDueTimeLatency:
    def test_stalled_generator_charges_the_stall_to_later_requests(self):
        due = [0.0, 0.1, 0.2, 0.3]
        # The generator stalled until t=1.0 and the server answered each
        # request 10 ms after it was finally sent.
        done = [1.01, 1.02, 1.03, 1.04]
        assert due_latencies(due, done) == pytest.approx([1.01, 0.92, 0.83, 0.74])

    def test_open_loop_times_from_due_even_when_the_sender_blocks(self):
        arrivals = [
            Arrival(index, offset, "t", "q", 1.0, "nominal")
            for index, offset in enumerate([0.0, 0.02, 0.04, 0.06])
        ]

        def send(arrival: Arrival) -> None:
            # A blocking client whose first call stalls the only sender.
            if arrival.index == 0:
                time.sleep(0.2)
            arrival.done = time.perf_counter()

        run_open_loop(arrivals, send, senders=1)
        latencies = due_latencies([a.due for a in arrivals], [a.done for a in arrivals])
        # Every request waited behind the stall, so each latency counts it.
        assert all(latency >= 0.2 - arrival.offset for latency, arrival in zip(latencies, arrivals))
        assert min(a.sent - a.due for a in arrivals[1:]) >= 0.1

    def test_poisson_schedule_is_seeded_and_has_the_expected_count(self):
        first = poisson_offsets(np.random.default_rng(7), 50.0, 4.0)
        again = poisson_offsets(np.random.default_rng(7), 50.0, 4.0)
        assert first == again
        assert len(first) == 200
        assert first == sorted(first) and 0.0 <= first[0] and first[-1] < 4.0


class TestFailuresMissTheLimit:
    def test_failed_requests_are_infinitely_late(self):
        latencies = due_latencies([0.0, 0.0, 0.0], [0.01, None, 0.02])
        assert latencies[1] == math.inf
        assert within_limit(latencies, limit=10.0) == 2
        assert goodput(latencies, limit=10.0, seconds=2.0) == 1.0

    def test_failures_beyond_one_percent_make_p99_infinite(self):
        latencies = [0.01] * 980 + [math.inf] * 20
        assert percentile(latencies, 99) == math.inf
        assert median(latencies) == 0.01


class TestSelfTime:
    def test_overlapping_children_are_subtracted_once(self):
        # Children cover [1, 6] (two overlapping) and [8, 10] (clipped).
        assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == 3.0

    def test_nested_and_disjoint_intervals(self):
        assert union_length([(0.0, 5.0), (1.0, 2.0), (6.0, 7.0)]) == 6.0
        assert self_time(0.0, 1.0, []) == 1.0
        assert self_time(0.0, 1.0, [(2.0, 3.0)]) == 1.0

    def test_tracer_self_time_uses_the_span_tree(self):
        tracer = Tracer()
        parent = tracer.record("parent", 0.0, 10.0)
        tracer.record("child", 1.0, 4.0, parent=parent)
        tracer.record("child", 3.0, 6.0, parent=parent)
        tracer.record("other", 2.0, 9.0)  # not a child: no parent link
        assert tracer.self_times()["parent"] == [5.0]

    def test_linked_span_inside_a_request_span_counts_as_its_child(self):
        tracer = Tracer()
        # A client round trip on the sender thread, and the server's handling
        # of the same request on another thread, linked to it.
        tracer.record("client", 0.0, 10.0, request=1)
        server = tracer.record("server", 2.0, 7.0)
        tracer.links[server] = [1]
        assert tracer.self_times()["client"] == [5.0]


class TestTracerWrap:
    def test_nested_calls_record_parents_and_links(self):
        class Layer:
            def outer(self, key):
                return self.inner(key) + 1

            def inner(self, key):
                return key * 2

        tracer = Tracer()
        layer = Layer()
        tracer.wrap(layer, "outer", "outer", link=lambda key: [key])
        tracer.wrap(layer, "inner", "inner", tally=lambda key: 1)

        results = []
        thread = threading.Thread(target=lambda: results.append(layer.outer(21)))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert results == [43]
        (outer,) = tracer.by_name("outer")
        (inner,) = tracer.by_name("inner")
        assert inner[4] == outer[0] and outer[4] is None
        assert tracer.links == {outer[0]: [21]}
        assert tracer.tallies["inner"] == 1

    def test_request_context_parents_spans_on_the_sender_thread(self):
        tracer = Tracer()

        class Client:
            def call(self):
                return None

        client = Client()
        tracer.wrap(client, "call", "call")
        root = tracer.new_id()
        with tracer.request(root, request=5):
            client.call()
        client.call()
        first, second = tracer.by_name("call")
        assert (first[4], first[5]) == (root, 5)
        assert (second[4], second[5]) == (None, None)
