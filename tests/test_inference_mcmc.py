"""Tests for the Metropolis–Hastings machinery over dataflow deltas."""

from __future__ import annotations

import pytest

from repro.core import PrivacySession, WeightedDataset
from repro.dataflow import DataflowEngine
from repro.inference import (
    IncrementalMetropolisHastings,
    MCMCResult,
    ScoreTracker,
)


class CounterEngine:
    """A one-number stand-in for the dataflow engine: pushes add to ``value``."""

    def __init__(self) -> None:
        self.value = 0.0

    def push(self, source, delta) -> None:
        self.value += delta["x"]


class FunctionTracker:
    """Scores the counter engine's value with a plain function."""

    def __init__(self, engine: CounterEngine, log_score) -> None:
        self._engine = engine
        self._log_score = log_score

    def log_score(self) -> float:
        return float(self._log_score(self._engine.value))


def counter_chain(log_score, step=lambda rng: 1.0, rng=0):
    """A sampler whose state is one number moved by ``step(rng)`` per proposal."""
    engine = CounterEngine()

    def propose(generator):
        return {"s": {"x": float(step(generator))}}, (lambda: None), (lambda: None)

    sampler = IncrementalMetropolisHastings(
        engine, FunctionTracker(engine, log_score), propose, rng=rng
    )
    return engine, sampler


class TestAcceptanceRule:
    def test_converges_to_high_score_region(self):
        # Score peaks sharply at 10.
        engine, sampler = counter_chain(
            lambda value: -abs(value - 10) * 2.0,
            step=lambda rng: rng.integers(-2, 3),
        )
        result = sampler.run(2000)
        assert abs(engine.value - 10) <= 3
        assert result.steps == 2000

    def test_always_accepts_improvements(self):
        engine, sampler = counter_chain(lambda value: value)
        sampler.run(50)
        assert engine.value == 50
        assert sampler.accepted == 50

    def test_rejects_most_large_downhill_moves(self):
        engine, sampler = counter_chain(lambda value: -100.0 * value)
        sampler.run(200)
        assert engine.value <= 2
        # Rejected moves were rolled back: the state counts acceptances only.
        assert engine.value == sampler.accepted

    def test_trajectory_recording_and_metrics(self):
        engine, sampler = counter_chain(lambda value: value)
        result = sampler.run(100, record_every=25, metrics={"state": lambda: engine.value})
        assert [record.step for record in result.trajectory] == [25, 50, 75, 100]
        assert [record.accepted_so_far for record in result.trajectory] == [25, 50, 75, 100]
        assert result.trajectory[-1].metrics["state"] == 100
        assert result.trajectory[-1].log_score == 100.0

    def test_result_properties(self):
        result = MCMCResult(steps=100, accepted=40, log_score=-1.0, elapsed_seconds=2.0)
        assert result.acceptance_rate == pytest.approx(0.4)
        assert result.steps_per_second == pytest.approx(50.0)
        empty = MCMCResult(steps=0, accepted=0, log_score=0.0, elapsed_seconds=0.0)
        assert empty.acceptance_rate == 0.0


@pytest.fixture()
def histogram_problem():
    """A tiny inference problem over plain weighted datasets.

    The protected histogram has most of its weight on record "a"; MCMC moves
    unit weights around a public candidate histogram to match the released
    noisy counts.
    """
    session = PrivacySession(seed=0)
    secret = session.protect("histogram", {"a": 8.0, "b": 2.0, "c": 0.0})
    measurement = secret.noisy_count(5.0, query_name="histogram")
    return session, secret, measurement


class TestIncrementalMetropolisHastings:
    def test_fits_released_measurement(self, histogram_problem):
        from repro.inference import RecordReplacementWalk

        _, secret, measurement = histogram_problem
        engine = DataflowEngine.from_plans([measurement.plan])
        # Public initial candidate: all weight on "c".
        initial = {"a": 0.0, "b": 0.0, "c": 10.0}
        engine.initialize({"histogram": WeightedDataset(initial)})
        tracker = ScoreTracker(engine, [measurement], pow_=3.0)
        walk = RecordReplacementWalk(initial, domain=["a", "b", "c"], rng=1)
        sampler = IncrementalMetropolisHastings(
            engine, tracker, walk.proposal_for_engine("histogram"), rng=2
        )
        initial_distance = tracker.distances()["histogram"]
        sampler.run(400)
        final_distance = tracker.distances()["histogram"]
        assert final_distance < initial_distance / 2
        # The candidate should have moved most of its weight onto "a".
        final = engine.source_dataset("histogram")
        assert final["a"] > final["c"]

    def test_rejected_moves_are_rolled_back(self, histogram_problem):
        _, _, measurement = histogram_problem
        engine = DataflowEngine.from_plans([measurement.plan])
        engine.initialize({"histogram": WeightedDataset({"a": 8.0, "b": 2.0})})
        tracker = ScoreTracker(engine, [measurement], pow_=10_000.0)

        # A proposal that always makes things much worse.
        def propose(rng):
            return {"histogram": {"a": -5.0, "z": 5.0}}, (lambda: None), (lambda: None)

        sampler = IncrementalMetropolisHastings(engine, tracker, propose, rng=0)
        before = engine.source_dataset("histogram").to_dict()
        accepted = sampler.step()
        assert not accepted
        assert engine.source_dataset("histogram").to_dict() == pytest.approx(before)

    def test_none_proposals_count_as_rejected_steps(self, histogram_problem):
        _, _, measurement = histogram_problem
        engine = DataflowEngine.from_plans([measurement.plan])
        engine.initialize({"histogram": WeightedDataset({"a": 1.0})})
        tracker = ScoreTracker(engine, [measurement], pow_=1.0)
        sampler = IncrementalMetropolisHastings(engine, tracker, lambda rng: None, rng=0)
        result = sampler.run(10)
        assert result.steps == 10
        assert result.accepted == 0

    def test_accept_callbacks_fire_only_on_acceptance(self, histogram_problem):
        _, _, measurement = histogram_problem
        engine = DataflowEngine.from_plans([measurement.plan])
        engine.initialize({"histogram": WeightedDataset({"a": 0.0, "c": 10.0})})
        tracker = ScoreTracker(engine, [measurement], pow_=5.0)
        events = {"accept": 0, "reject": 0}

        def propose(rng):
            delta = {"histogram": {"c": -1.0, "a": 1.0}}
            return (
                delta,
                lambda: events.__setitem__("accept", events["accept"] + 1),
                lambda: events.__setitem__("reject", events["reject"] + 1),
            )

        sampler = IncrementalMetropolisHastings(engine, tracker, propose, rng=1)
        result = sampler.run(20)
        assert events["accept"] == result.accepted
        assert events["reject"] == result.steps - result.accepted

    def test_trajectory_metrics_are_callables_without_arguments(self, histogram_problem):
        _, _, measurement = histogram_problem
        engine = DataflowEngine.from_plans([measurement.plan])
        engine.initialize({"histogram": WeightedDataset({"a": 1.0})})
        tracker = ScoreTracker(engine, [measurement], pow_=1.0)
        sampler = IncrementalMetropolisHastings(engine, tracker, lambda rng: None, rng=0)
        result = sampler.run(10, record_every=5, metrics={"constant": lambda: 7.0})
        assert all(record.metrics["constant"] == 7.0 for record in result.trajectory)
