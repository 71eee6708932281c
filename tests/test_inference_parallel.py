"""Tests for the parallel multi-chain driver and the ``repro synth`` CLI."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.analyses import protect_graph, triangles_by_intersect_query
from repro.core import PrivacySession
from repro.graph.generators import erdos_renyi
from repro.inference import GraphSynthesizer
from repro.inference.parallel import (
    ParallelSynthesisResult,
    run_chains,
    spawn_generators,
)
from repro.inference.seed import seed_graph_from_edges


@pytest.fixture()
def fitted():
    graph = erdos_renyi(30, 60, rng=8)
    session = PrivacySession(seed=9)
    edges = protect_graph(session, graph, total_epsilon=100.0)
    measurements = list(
        session.measure((triangles_by_intersect_query(edges), 0.5, "tbi"))
    )
    seed_graph, _ = seed_graph_from_edges(edges, 0.3, rng=np.random.default_rng(10))
    return measurements, seed_graph


class TestSpawnGenerators:
    def test_deterministic_and_independent(self):
        first = spawn_generators(7, 3)
        second = spawn_generators(7, 3)
        draws_first = [generator.random() for generator in first]
        draws_second = [generator.random() for generator in second]
        assert draws_first == draws_second
        assert len(set(draws_first)) == 3


class TestRunChains:
    def test_returns_all_chains_and_best(self, fitted):
        measurements, seed_graph = fitted
        outcome = run_chains(
            measurements, seed_graph, steps=60, chains=3, pow_=50.0, rng=4
        )
        assert isinstance(outcome, ParallelSynthesisResult)
        assert len(outcome.chains) == 3
        assert [chain.index for chain in outcome.chains] == [0, 1, 2]
        best = outcome.best
        assert best.log_score == max(chain.log_score for chain in outcome.chains)
        for chain in outcome.chains:
            assert chain.result.steps == 60
            assert sorted(chain.graph.degrees().values()) == sorted(
                seed_graph.degrees().values()
            )

    def test_deterministic_under_fixed_seed(self, fitted):
        measurements, seed_graph = fitted
        first = run_chains(
            measurements, seed_graph, steps=40, chains=2, pow_=50.0, rng=4
        )
        second = run_chains(
            measurements, seed_graph, steps=40, chains=2, pow_=50.0, rng=4
        )
        assert [chain.log_score for chain in first.chains] == [
            chain.log_score for chain in second.chains
        ]

    def test_chains_must_be_positive(self, fitted):
        measurements, seed_graph = fitted
        with pytest.raises(ValueError):
            run_chains(measurements, seed_graph, steps=10, chains=0)

    def test_synthesizer_adopts_best_chain(self, fitted):
        measurements, seed_graph = fitted
        synthesizer = GraphSynthesizer(measurements, seed_graph, pow_=50.0, rng=4)
        result = synthesizer.run(60, chains=3)
        report = synthesizer.last_parallel_result
        assert report is not None and len(report.chains) == 3
        assert synthesizer.log_score == report.best.log_score
        assert synthesizer.graph is report.best.graph
        assert result.accepted == report.best.result.accepted
        # The adopted sampler keeps working.
        synthesizer.run(10)

    def test_steps_per_second_aggregate(self, fitted):
        measurements, seed_graph = fitted
        outcome = run_chains(
            measurements, seed_graph, steps=30, chains=2, pow_=50.0, rng=4
        )
        assert outcome.steps_per_second() > 0


class TestCLI:
    def test_synth_command(self, capsys):
        from repro.cli import main

        code = main(
            [
                "synth",
                "--edges", "60",
                "--steps", "0.02",
                "--chains", "2",
                "--seed", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "chain" in out and "steps/s" in out and "best chain" in out

    def test_synth_single_chain_dataflow(self, capsys):
        """The CLI runs the library's one engine; no option chooses another."""
        from repro.cli import main

        code = main(["synth", "--edges", "40", "--steps", "0.01"])
        assert code == 0
        assert "backend=dataflow" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["synth", "--help"])
        options = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        assert "--chains" in options
        assert not options & {"--backend", "--batch"}

    def test_bench_mcmc_command(self, capsys, tmp_path):
        from repro.cli import main

        out_path = tmp_path / "BENCH_mcmc.json"
        code = main(
            [
                "bench",
                "--mcmc",
                "--edges", "120",
                "--steps", "0.02",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        assert "MCMC synthesis (dataflow engine)" in capsys.readouterr().out
        report = json.loads(out_path.read_text())
        (entry,) = report["sizes"]
        assert entry["edges"] == 120 and entry["cpu_count"] >= 1
        assert entry["eager_agreement"]["max_distance_rel_diff"] <= 1e-9
        assert entry["eager_agreement"]["log_score_rel_diff"] <= 1e-9
