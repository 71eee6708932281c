"""Tests for incremental measurement scoring and the random walks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analyses import protect_graph, triangles_by_intersect_query
from repro.core import PrivacySession, WeightedDataset
from repro.dataflow import DataflowEngine, OutputCollector
from repro.exceptions import ReproError
from repro.inference import (
    EdgeSwapWalk,
    MeasurementScore,
    RecordReplacementWalk,
    ScoreTracker,
    edge_swap_delta,
)
from repro.graph import Graph, degree_sequence, erdos_renyi


class TestMeasurementScore:
    def _measurement(self, weights, epsilon=1e6, seed=0):
        session = PrivacySession(seed=seed)
        protected = session.protect("data", weights)
        return protected.noisy_count(epsilon, query_name="data")

    def _reference_distance(self, score, collector):
        """Distance over the released records, recomputed from scratch."""
        return sum(
            abs(collector.weight(record) - target)
            for record, target in score.targets.items()
        )

    def test_initial_distance_matches_full_computation(self):
        measurement = self._measurement({"a": 2.0, "b": 1.0})
        collector = OutputCollector()
        collector.on_delta({"a": 2.0, "c": 4.0}, 0)
        score = MeasurementScore(measurement, collector)
        assert score.distance == pytest.approx(self._reference_distance(score, collector))
        # Records the measurement never released ("c") carry no term.
        assert set(score.targets) == {"a", "b"}

    def test_incremental_updates_track_changes(self):
        measurement = self._measurement({"a": 2.0, "b": 1.0})
        collector = OutputCollector()
        score = MeasurementScore(measurement, collector)
        collector.on_delta({"a": 2.0}, 0)
        collector.on_delta({"b": 0.5, "z": 1.0}, 0)
        collector.on_delta({"z": -1.0}, 0)
        assert score.distance == pytest.approx(
            self._reference_distance(score, collector), abs=1e-9
        )

    def test_resynchronize(self):
        measurement = self._measurement({"a": 1.0})
        collector = OutputCollector()
        score = MeasurementScore(measurement, collector)
        collector.on_delta({"a": 1.0}, 0)
        assert score.resynchronize() == pytest.approx(score.distance)

    def test_requires_plan(self):
        from repro.core.aggregation import NoisyCountResult

        bare = NoisyCountResult(WeightedDataset({"a": 1.0}), 1.0)
        with pytest.raises(ReproError):
            MeasurementScore(bare, OutputCollector())


class TestScoreTracker:
    def test_log_score_combines_measurements(self):
        session = PrivacySession(seed=1)
        data = session.protect("rows", {"a": 3.0, "b": 1.0})
        first = data.noisy_count(2.0, query_name="first")
        second = data.select(lambda r: "total").noisy_count(1.0, query_name="second")
        engine = DataflowEngine.from_plans([first.plan, second.plan])
        engine.initialize({"rows": WeightedDataset({"a": 1.0})})
        tracker = ScoreTracker(engine, [first, second], pow_=2.0)
        manual = -(2.0) * (
            first.epsilon * tracker.scores[0].distance
            + second.epsilon * tracker.scores[1].distance
        )
        assert tracker.log_score() == pytest.approx(manual)
        assert set(tracker.distances()) == {"first", "second"}

    def test_pow_must_be_positive(self):
        session = PrivacySession(seed=2)
        data = session.protect("rows", {"a": 1.0})
        measurement = data.noisy_count(1.0)
        engine = DataflowEngine.from_plans([measurement.plan])
        with pytest.raises(ValueError):
            ScoreTracker(engine, [measurement], pow_=0.0)

    def test_resynchronize_is_stable(self):
        session = PrivacySession(seed=3)
        data = session.protect("rows", {"a": 1.0})
        measurement = data.noisy_count(1.0)
        engine = DataflowEngine.from_plans([measurement.plan])
        engine.initialize(session.environment())
        tracker = ScoreTracker(engine, [measurement], pow_=1.0)
        before = tracker.log_score()
        tracker.resynchronize()
        assert tracker.log_score() == pytest.approx(before)

    def test_duplicate_plans_share_collector(self):
        """One plan measured twice costs one incremental evaluation per step."""
        session = PrivacySession(seed=4)
        data = session.protect("rows", {"a": 2.0, "b": 1.0})
        measurement = data.noisy_count(1.0, query_name="rows")
        engine = DataflowEngine.from_plans([measurement.plan])
        engine.initialize(session.environment())
        tracker = ScoreTracker(engine, [measurement, measurement])
        assert tracker.unique_plan_count == 1
        assert tracker.scores[0]._collector is tracker.scores[1]._collector
        assert tracker.scores[0].distance == tracker.scores[1].distance


class TestEdgeSwapDelta:
    def test_delta_is_symmetric_and_balanced(self):
        delta = edge_swap_delta(1, 2, 3, 4)
        assert sum(delta.values()) == 0.0
        assert delta[(1, 2)] == -1.0 and delta[(2, 1)] == -1.0
        assert delta[(1, 4)] == 1.0 and delta[(4, 1)] == 1.0


class TestEdgeSwapWalk:
    def test_proposals_are_valid_swaps(self):
        graph = erdos_renyi(20, 50, rng=0)
        walk = EdgeSwapWalk(graph.copy(), rng=1)
        proposals = 0
        for _ in range(200):
            proposal = walk.propose()
            if proposal is None:
                continue
            proposals += 1
            _, a, b, c, d = proposal
            assert walk.graph.can_swap(a, b, c, d)
        assert proposals > 50

    def test_accepting_proposals_preserves_degree_sequence(self):
        graph = erdos_renyi(20, 50, rng=2)
        original_degrees = degree_sequence(graph)
        walk = EdgeSwapWalk(graph, rng=3)
        generate = walk.proposal_for_engine("edges")
        rng = np.random.default_rng(0)
        accepted = 0
        for _ in range(300):
            proposal = generate(rng)
            if proposal is None:
                continue
            _, on_accept, _ = proposal
            on_accept()
            accepted += 1
        assert accepted > 50
        assert degree_sequence(walk.graph) == original_degrees

    def test_accepting_keeps_edge_list_in_sync_with_graph(self):
        graph = erdos_renyi(15, 35, rng=4)
        walk = EdgeSwapWalk(graph, rng=5)
        generate = walk.proposal_for_engine("edges")
        rng = np.random.default_rng(1)
        for _ in range(100):
            proposal = generate(rng)
            if proposal is None:
                continue
            proposal[1]()  # on_accept
        # Every edge in the walk's list must exist in the graph and vice versa.
        listed = {frozenset(edge) for edge in walk._edges}
        actual = {frozenset(edge) for edge in walk.graph.edges()}
        assert listed == actual

    def test_rejection_leaves_graph_untouched(self):
        graph = erdos_renyi(15, 35, rng=6)
        snapshot = graph.copy()
        walk = EdgeSwapWalk(graph, rng=7)
        generate = walk.proposal_for_engine("edges")
        rng = np.random.default_rng(2)
        for _ in range(50):
            proposal = generate(rng)
            if proposal is None:
                continue
            proposal[2]()  # on_reject
        assert graph == snapshot

    def test_too_few_edges_returns_none(self):
        walk = EdgeSwapWalk(Graph([(1, 2)]), rng=0)
        assert walk.propose() is None


class TestRecordReplacementWalk:
    def test_proposals_move_one_unit(self):
        walk = RecordReplacementWalk({"a": 3.0}, domain=["a", "b", "c"], rng=0)
        seen_targets = set()
        for _ in range(50):
            delta = walk.propose()
            if delta is None:
                continue
            assert sum(delta.values()) == 0.0
            assert min(delta.values()) == -1.0
            seen_targets.update(record for record, change in delta.items() if change > 0)
        assert seen_targets <= {"b", "c"}

    def test_apply_updates_state(self):
        walk = RecordReplacementWalk({"a": 1.0}, domain=["a", "b"], rng=0)
        walk.apply({"a": -1.0, "b": 1.0})
        assert walk.weights == {"b": 1.0}

    def test_empty_state_returns_none(self):
        walk = RecordReplacementWalk({}, domain=["a"], rng=0)
        assert walk.propose() is None

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            RecordReplacementWalk({"a": 1.0}, domain=[], rng=0)


class TestScoringEndToEnd:
    def test_tbi_score_improves_when_swapping_toward_real_graph(self):
        # Build a measurement on a triangle-rich graph, initialise the engine
        # with a triangle-poor graph of the same degrees, and check that the
        # tracker's distance decreases when triangles are added.
        from repro.graph import paper_graph_with_twin

        graph, twin = paper_graph_with_twin("CA-GrQc", scale=0.04)
        session = PrivacySession(seed=8)
        edges = protect_graph(session, graph)
        measurement = triangles_by_intersect_query(edges).noisy_count(1.0, query_name="tbi")
        engine = DataflowEngine.from_plans([measurement.plan])
        engine.initialize({"edges": WeightedDataset.from_records(twin.to_edge_records())})
        tracker = ScoreTracker(engine, [measurement], pow_=1.0)
        distance_with_twin = tracker.distances()["tbi"]

        engine_real = DataflowEngine.from_plans([measurement.plan])
        engine_real.initialize({"edges": WeightedDataset.from_records(graph.to_edge_records())})
        tracker_real = ScoreTracker(engine_real, [measurement], pow_=1.0)
        assert tracker_real.distances()["tbi"] < distance_with_twin
