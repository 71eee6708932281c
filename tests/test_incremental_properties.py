"""Property tests of the dataflow scoring engine against an eager reference.

Over random applied edge-swap sequences, and over arbitrary non-swap deltas
that take the join's slow path, the incrementally maintained distances and
log score of :class:`ScoreTracker` must equal a full :class:`EagerExecutor`
evaluation of the measurement plans over the current edge records.  A seeded
:class:`GraphSynthesizer` must also take the same accept/reject decisions as a
small chain that re-scores every candidate eagerly and consumes the same RNG
stream.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analyses import (
    node_degrees,
    protect_graph,
    triangles_by_intersect_query,
)
from repro.core import PrivacySession, WeightedDataset
from repro.core.executor import DataflowExecutor, EagerExecutor
from repro.graph.generators import erdos_renyi
from repro.inference import GraphSynthesizer
from repro.inference.random_walks import EdgeSwapWalk
from repro.inference.scoring import ScoreTracker
from repro.inference.seed import seed_graph_from_edges

POW = 25.0
#: Largest allowed gap to the eager reference, relative to max(1, |eager|).
RELATIVE = 1e-9


def build_problem(graph_seed: int):
    graph = erdos_renyi(24, 45, rng=graph_seed)
    session = PrivacySession(seed=graph_seed + 1)
    edges = protect_graph(session, graph, total_epsilon=100.0)
    measurements = list(
        session.measure(
            (triangles_by_intersect_query(edges), 0.5, "tbi"),
            (node_degrees(edges), 0.2, "degrees"),
        )
    )
    seed_graph, _ = seed_graph_from_edges(
        edges, 0.3, rng=np.random.default_rng(graph_seed + 2)
    )
    return measurements, seed_graph


def edge_weights(graph) -> dict:
    return WeightedDataset.from_records(graph.to_edge_records(symmetric=True)).to_dict()


def eager_score(measurements, weights: dict) -> tuple[float, dict[str, float]]:
    """Log score and per-measurement L1 distances, evaluated from scratch."""
    executor = EagerExecutor({"edges": WeightedDataset(weights)})
    outputs = executor.evaluate_many([m.plan for m in measurements])
    distances = {
        m.query_name: sum(abs(output[record] - target) for record, target in m.to_dict().items())
        for m, output in zip(measurements, outputs)
    }
    weighted = sum(m.epsilon * distances[m.query_name] for m in measurements)
    return -POW * weighted, distances


def assert_close(actual: float, expected: float) -> None:
    assert abs(actual - expected) <= RELATIVE * max(1.0, abs(expected)), (actual, expected)


def assert_matches_eager(tracker: ScoreTracker, measurements, weights: dict) -> None:
    log_score, distances = eager_score(measurements, weights)
    tracked = tracker.distances()
    for name, distance in distances.items():
        assert_close(tracked[name], distance)
    assert_close(tracker.log_score(), log_score)


def compile_tracker(measurements, seed_graph):
    executor = DataflowExecutor({"edges": WeightedDataset(edge_weights(seed_graph))})
    engine = executor.compile([m.plan for m in measurements])
    return engine, ScoreTracker(engine, measurements, pow_=POW)


def add(weights: dict, delta: dict) -> dict:
    merged = dict(weights)
    for record, change in delta.items():
        merged[record] = merged.get(record, 0.0) + change
    return merged


@settings(max_examples=8, deadline=None)
@given(graph_seed=st.integers(0, 50), walk_seed=st.integers(0, 1000))
def test_edge_swap_sequences_agree_across_backends(graph_seed, walk_seed):
    """Random applied edge-swap sequences: dataflow tracks the eager score."""
    measurements, seed_graph = build_problem(graph_seed)
    engine, tracker = compile_tracker(measurements, seed_graph)
    weights = edge_weights(seed_graph)
    assert_matches_eager(tracker, measurements, weights)

    walk = EdgeSwapWalk(seed_graph.copy(), rng=walk_seed)
    generate = walk.proposal_for_engine("edges")
    applied = 0
    attempts = 0
    while applied < 20 and attempts < 400:
        attempts += 1
        proposal = generate(None)
        if proposal is None:
            continue
        deltas, on_accept, _ = proposal
        engine.push("edges", deltas["edges"])
        on_accept()
        weights = add(weights, deltas["edges"])
        applied += 1
        assert_matches_eager(tracker, measurements, weights)


@settings(max_examples=6, deadline=None)
@given(
    graph_seed=st.integers(0, 50),
    deltas=st.lists(
        st.tuples(
            st.lists(
                st.tuples(
                    st.integers(0, 30),
                    st.integers(0, 30),
                    st.floats(-1.5, 1.5, allow_nan=False, width=32),
                ),
                max_size=4,
            ),
            st.lists(st.integers(0, 10_000), max_size=2),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_arbitrary_delta_sequences_agree(graph_seed, deltas):
    """Non-degree-preserving deltas (the join's slow path) stay exact too.

    Each delta adds arbitrary weight changes and deletes whole present
    records, so join outputs both change scale and vanish.
    """
    measurements, seed_graph = build_problem(graph_seed)
    engine, tracker = compile_tracker(measurements, seed_graph)
    weights = edge_weights(seed_graph)
    for changes, removals in deltas:
        delta: dict = {}
        for a, b, change in changes:
            delta[(a, b)] = delta.get((a, b), 0.0) + change
        present = sorted(record for record, weight in weights.items() if weight)
        for pick in removals:
            record = present[pick % len(present)]
            delta[record] = delta.get(record, 0.0) - weights[record]
        engine.push("edges", delta)
        weights = add(weights, delta)
        assert_matches_eager(tracker, measurements, weights)


def eager_chain(measurements, seed_graph, chain_seed: int, steps: int):
    """Metropolis–Hastings that re-scores every candidate eagerly.

    Draws from one generator in the synthesizer's order: the walk's proposal
    draws, then one uniform per valid proposal for the acceptance test.
    """
    rng = np.random.default_rng(chain_seed)
    walk = EdgeSwapWalk(seed_graph.copy(), rng=rng)
    generate = walk.proposal_for_engine("edges")
    weights = edge_weights(seed_graph)
    current, _ = eager_score(measurements, weights)
    accepted = 0
    for _ in range(steps):
        proposal = generate(rng)
        if proposal is None:
            continue
        deltas, on_accept, _ = proposal
        candidate_weights = add(weights, deltas["edges"])
        candidate, _ = eager_score(measurements, candidate_weights)
        draw = float(rng.random())
        log_ratio = candidate - current
        if log_ratio >= 0 or draw < math.exp(max(log_ratio, -745.0)):
            on_accept()
            weights = candidate_weights
            current = candidate
            accepted += 1
    return accepted, current, walk.graph


@settings(max_examples=4, deadline=None)
@given(graph_seed=st.integers(0, 30), chain_seed=st.integers(0, 500))
def test_seeded_synthesis_decisions_match(graph_seed, chain_seed):
    """Same seed, same walk: the synthesizer decides as the eager chain does."""
    measurements, seed_graph = build_problem(graph_seed)
    synthesizer = GraphSynthesizer(measurements, seed_graph, pow_=POW, rng=chain_seed)
    result = synthesizer.run(60)
    accepted, log_score, graph = eager_chain(measurements, seed_graph, chain_seed, 60)
    assert result.accepted == accepted
    assert_close(synthesizer.log_score, log_score)
    assert sorted(synthesizer.graph.to_edge_records(symmetric=True)) == sorted(
        graph.to_edge_records(symmetric=True)
    )
