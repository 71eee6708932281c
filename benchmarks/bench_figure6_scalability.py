"""Figure 6: memory and throughput of the incremental engine versus Σ d².

Paper claim (Section 5.3): the memory needed by TbI-driven MCMC grows with
Σ d² (the number of candidate length-two paths the engine must index), and the
achievable MCMC steps/second falls correspondingly; Epinions, with the largest
Σ d² relative to its edge count, is the most demanding workload.

Absolute numbers are not comparable (C# on a 64 GB server vs pure Python on a
laptop-scale stand-in); the monotone relationships are what this benchmark
checks.  ``state_entries`` counts weighted records held by operator state and
is the platform-independent memory proxy; tracemalloc peak is also reported.

A second test times single-chain MCMC synthesis on the dataflow engine
across graph sizes (steps/second, build seconds, state entries, Σd² and the
host's ``cpu_count``), asserts that the incrementally maintained distances
and log score agree with an eager re-evaluation of the measurement plans to
1e-9 (relative), and writes the repo-root ``BENCH_mcmc.json`` report that
tracks the perf trajectory.  Scale knobs: ``REPRO_BENCH_MCMC_EDGES`` (comma
list), ``REPRO_BENCH_MCMC_STEPS``, ``REPRO_BENCH_MCMC_MIN_ACCEPTED``.

A third test exercises the process-parallel sharded subsystem at ≥100k
edges — sharded one-shot evaluation (bit-identical to the vectorized
backend) plus aggregate steps/second of whole chains over 1/2/4 worker
processes — and writes ``BENCH_shard.json``.  Knobs:
``REPRO_BENCH_SHARD_EDGES``, ``REPRO_BENCH_SHARD_STEPS``,
``REPRO_BENCH_SHARD_PROCESSES`` (comma list) and
``REPRO_BENCH_SHARD_MIN_SPEEDUP`` (default 2.5×, enforced only on hosts
with at least as many cores as workers).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from conftest import emit
from repro.experiments import figure6_scalability, format_table

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.benchmark(group="figure6")
def test_figure6_memory_and_throughput(benchmark, config):
    results = benchmark.pedantic(lambda: figure6_scalability(config), rounds=1, iterations=1)
    emit(
        format_table(
            ["workload", "nodes", "edges", "sum d^2", "state entries", "peak MB", "build s", "MCMC steps/s"],
            [
                (
                    r["label"],
                    int(r["nodes"]),
                    int(r["edges"]),
                    int(r["degree_sum_of_squares"]),
                    int(r["state_entries"]),
                    r["peak_memory_mb"],
                    r["build_seconds"],
                    r["steps_per_second"],
                )
                for r in results
            ],
            title="Figure 6 — incremental TbI engine: memory and throughput vs sum of squared degrees",
        )
    )
    barabasi = [r for r in results if r["label"].startswith("barabasi")]
    assert len(barabasi) >= 2
    ordered = sorted(barabasi, key=lambda r: r["degree_sum_of_squares"])
    # Shape: operator state (the memory proxy) grows with sum d^2.
    assert ordered[-1]["state_entries"] > ordered[0]["state_entries"]
    # Shape: throughput falls as sum d^2 grows (allow a small tolerance for
    # timing jitter on the middle points; compare the endpoints).
    assert ordered[-1]["steps_per_second"] < ordered[0]["steps_per_second"] * 1.05
    # Shape: state also tracks sum d^2 in ratio terms: doubling sum d^2 should
    # not leave the state size unchanged.
    ratio_state = ordered[-1]["state_entries"] / ordered[0]["state_entries"]
    ratio_d2 = ordered[-1]["degree_sum_of_squares"] / ordered[0]["degree_sum_of_squares"]
    assert ratio_state > 1.0 + 0.25 * (ratio_d2 - 1.0)


# No `benchmark` fixture: the run times itself (steps/s is the reported
# metric), which keeps the CI smoke run free of extra dependencies.
def test_figure6_mcmc_throughput():
    """Steps/second of single-chain MCMC synthesis across graph sizes.

    Checks at every size: enough steps were accepted for the agreement claim
    to be about genuinely updated state, and the incrementally maintained
    per-measurement distances and log score equal an eager re-evaluation of
    the measurement plans over the final synthetic graph to 1e-9 (relative).
    """
    from repro.inference.bench import format_mcmc_throughput, mcmc_throughput

    edge_counts = tuple(
        int(value)
        for value in os.environ.get("REPRO_BENCH_MCMC_EDGES", "2000,10000").split(",")
        if value.strip()
    )
    steps = int(os.environ.get("REPRO_BENCH_MCMC_STEPS", "2000"))
    min_accepted = int(os.environ.get("REPRO_BENCH_MCMC_MIN_ACCEPTED", "1000"))

    report = mcmc_throughput(edge_counts=edge_counts, steps=steps)
    emit(format_mcmc_throughput(report))
    (REPO_ROOT / "BENCH_mcmc.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    for entry in report["sizes"]:
        assert entry["accepted"] >= min_accepted, entry
        agreement = entry["eager_agreement"]
        assert agreement["max_distance_rel_diff"] <= 1e-9, (entry["edges"], agreement)
        assert agreement["log_score_rel_diff"] <= 1e-9, (entry["edges"], agreement)


def test_figure6_sharded_scaling():
    """Process-parallel sharding at scale — writes ``BENCH_shard.json``.

    Two phases over a ≥100k-edge graph (``REPRO_BENCH_SHARD_EDGES``):

    1. *Sharded one-shot evaluation*: the same shardable plans through
       :class:`~repro.columnar.executor.VectorizedExecutor` and a pooled
       :class:`~repro.shard.executor.ShardedExecutor`; results must be
       bit-identical (the merge-kernel contract), timings are recorded.
    2. *Chain scaling*: aggregate MCMC steps/second of whole chains fanned
       out over 1/2/4 worker processes vs a single in-process chain
       (``chain_scaling_comparison``), including the thread/process
       bit-identity check.

    The speedup bar (``REPRO_BENCH_SHARD_MIN_SPEEDUP``, default 2.5× at the
    largest worker count) is only *enforced* when the host actually has that
    many cores — process parallelism cannot beat the core count, and this
    repo's CI containers are often single-core.  ``cpu_count`` and whether
    the bar was enforced are recorded in the report either way, so a reader
    of the committed numbers knows exactly what hardware produced them.
    """
    import time

    from repro.columnar.executor import VectorizedExecutor
    from repro.core.dataset import WeightedDataset
    from repro.core.plan import DownScalePlan, SelectPlan, ShavePlan, SourcePlan
    from repro.columnar.specs import Field, Permute
    from repro.graph.generators import erdos_renyi
    from repro.inference.bench import chain_scaling_comparison, format_chain_scaling
    from repro.shard.executor import ShardedExecutor

    edges = int(os.environ.get("REPRO_BENCH_SHARD_EDGES", "100000"))
    steps = int(os.environ.get("REPRO_BENCH_SHARD_STEPS", "300"))
    process_counts = tuple(
        int(value)
        for value in os.environ.get("REPRO_BENCH_SHARD_PROCESSES", "1,2,4").split(",")
        if value.strip()
    )
    min_speedup = float(os.environ.get("REPRO_BENCH_SHARD_MIN_SPEEDUP", "2.5"))
    cpu_count = os.cpu_count() or 1
    workers = max(process_counts)

    # Phase 1 — sharded one-shot evaluation over the symmetric edge records.
    graph = erdos_renyi(max(4, edges // 2), edges, rng=0)
    dataset = WeightedDataset.from_records(graph.to_edge_records(symmetric=True))
    source = SourcePlan("edges")
    plans = [
        source,
        SelectPlan(source, Permute(1, 0)),
        SelectPlan(source, Field(0)),
        DownScalePlan(source, 0.5),
        SelectPlan(ShavePlan(source, 1.0), Field(1)),
    ]
    environment = {"edges": dataset}
    vectorized = VectorizedExecutor(environment)
    started = time.perf_counter()
    expected = vectorized.evaluate_many(plans)
    vectorized_seconds = time.perf_counter() - started
    sharded = ShardedExecutor(environment, shards=workers)
    try:
        started = time.perf_counter()
        first = sharded.evaluate_many(plans)
        cold_seconds = time.perf_counter() - started
        started = time.perf_counter()
        second = sharded.evaluate_many(plans)
        warm_seconds = time.perf_counter() - started
        routed = [sharded.backend_for(plan) for plan in plans]
    finally:
        sharded.close()
    for want, cold, warm in zip(expected, first, second):
        assert want.to_dict() == cold.to_dict() == warm.to_dict()
    assert all(backend == "sharded" for backend in routed), routed

    # Phase 2 — aggregate throughput of process-parallel chains.
    scaling = chain_scaling_comparison(
        edges=edges, steps=steps, process_counts=process_counts, seed=0
    )
    emit(format_chain_scaling(scaling))

    enforced = cpu_count >= workers
    report = {
        "edges": edges,
        "records": len(dataset),
        "cpu_count": cpu_count,
        "min_speedup": min_speedup,
        "min_speedup_enforced": enforced,
        "sharded_evaluation": {
            "shards": workers,
            "plans": len(plans),
            "vectorized_seconds": vectorized_seconds,
            "sharded_cold_seconds": cold_seconds,
            "sharded_warm_seconds": warm_seconds,
            "bit_identical": True,
        },
        "chain_scaling": scaling,
    }
    (REPO_ROOT / "BENCH_shard.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    agreement = scaling["agreement"]
    assert agreement["accepted_equal"], agreement
    assert agreement["graphs_equal"], agreement
    assert agreement["max_distance_diff"] <= 1e-9, agreement
    if enforced:
        largest = max(scaling["scaling"], key=lambda row: row["processes"])
        assert largest["speedup_vs_single"] >= min_speedup, (
            f"{largest['processes']} worker processes managed only "
            f"{largest['speedup_vs_single']:.2f}x aggregate steps/s over a "
            f"single chain on a {cpu_count}-core host (required {min_speedup}x)"
        )
