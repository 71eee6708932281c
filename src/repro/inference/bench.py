"""MCMC synthesis throughput of the dataflow scoring engine.

:func:`mcmc_throughput` runs the TbI + degree synthesis workload over graphs
of several sizes and reports, per size, steps/second — the quantity Figure 6
treats as *the* scalability metric — engine build seconds, operator state
entries (the Figure 6 memory proxy), Σd² of the graph and the host's
``cpu_count``.  Each size also records how far the incrementally maintained
score ended from an independent eager re-evaluation of the measurement plans
over the final synthetic graph.

It backs the ``repro bench --mcmc`` CLI subcommand (which writes
``BENCH_mcmc.json``) and ``benchmarks/bench_figure6_scalability.py``'s
throughput test.  The timed window covers only :meth:`GraphSynthesizer.run`;
graph generation, measurement and engine construction are reported
separately.
"""

from __future__ import annotations

import os
import time
from typing import Sequence

from ..analyses import (
    node_degrees,
    protect_graph,
    triangles_by_intersect_query,
)
from ..core.dataset import WeightedDataset
from ..core.executor import EagerExecutor
from ..core.queryable import PrivacySession
from ..graph.generators import erdos_renyi, random_twin
from .synthesizer import GraphSynthesizer

__all__ = [
    "mcmc_throughput",
    "chain_scaling_comparison",
    "format_mcmc_throughput",
    "format_chain_scaling",
]


def _eager_agreement(synthesizer: GraphSynthesizer) -> dict:
    """Relative gaps between the engine's score and an eager re-score.

    Evaluates every measurement plan with :class:`EagerExecutor` over the
    synthesizer's current edge records and compares the L1 distances to the
    released values, and the log score built from them, with what the
    incremental tracker holds.  Both gaps are relative to ``max(1, |eager|)``.
    """
    records = WeightedDataset.from_records(
        synthesizer.graph.to_edge_records(symmetric=True)
    )
    executor = EagerExecutor({synthesizer.source_name: records})
    outputs = executor.evaluate_many([m.plan for m in synthesizer.measurements])
    tracked = synthesizer.tracker.distances()
    distance_gap = 0.0
    weighted = 0.0
    for index, (measurement, output) in enumerate(zip(synthesizer.measurements, outputs)):
        distance = sum(
            abs(output[record] - target)
            for record, target in measurement.to_dict().items()
        )
        weighted += measurement.epsilon * distance
        name = measurement.query_name or f"measurement_{index}"
        distance_gap = max(
            distance_gap, abs(tracked[name] - distance) / max(1.0, abs(distance))
        )
    log_score = -synthesizer.pow_ * weighted
    return {
        "max_distance_rel_diff": distance_gap,
        "log_score_rel_diff": abs(synthesizer.log_score - log_score)
        / max(1.0, abs(log_score)),
    }


def _run_chain(measurements: list, seed_graph, steps: int, seed: int, pow_: float) -> dict:
    started = time.perf_counter()
    synthesizer = GraphSynthesizer(measurements, seed_graph, pow_=pow_, rng=seed)
    build_seconds = time.perf_counter() - started
    result = synthesizer.run(steps)
    return {
        "steps": result.steps,
        "accepted": result.accepted,
        "build_seconds": build_seconds,
        "run_seconds": result.elapsed_seconds,
        "steps_per_second": result.steps_per_second,
        "log_score": synthesizer.log_score,
        "distances": synthesizer.distances(),
        "state_entries": synthesizer.state_entry_count(),
        "eager_agreement": _eager_agreement(synthesizer),
    }


def _build_workload(edges: int, seed: int, epsilon: float):
    """The benchmark's standard workload: TbI + degrees over an ER graph."""
    nodes = max(4, edges // 2)
    graph = erdos_renyi(nodes, edges, rng=seed)
    session = PrivacySession(seed=seed)
    protected = protect_graph(session, graph, total_epsilon=float("inf"))
    measurements = list(
        session.measure(
            (triangles_by_intersect_query(protected), epsilon, "tbi"),
            (node_degrees(protected), epsilon, "degrees"),
        )
    )
    seed_graph = random_twin(graph, rng=seed)
    return graph, measurements, seed_graph


def chain_scaling_comparison(
    edges: int = 100_000,
    steps: int = 400,
    process_counts: Sequence[int] = (1, 2, 4),
    seed: int = 0,
    pow_: float = 1.0,
    epsilon: float = 0.1,
    start_method: str | None = None,
) -> dict:
    """Aggregate steps/second of process-parallel chains vs a single chain.

    For each entry of ``process_counts`` this runs ``P`` independent chains
    in ``P`` worker processes (:func:`~repro.inference.parallel.run_chains`
    with ``processes=P``) and reports the aggregate throughput — total steps
    divided by the slowest chain's window, the figure a wall-clock observer
    sees — against a single in-process chain as the baseline.  ``cpu_count``
    is recorded because the achievable speedup is capped by physical cores:
    on a single-core container every process count collapses to ~1×, which
    the report states honestly rather than hiding.

    The ``agreement`` entry re-runs chain 0 on the thread path with the same
    spawned generator and asserts-by-reporting that the process path walked
    the *same* chain (identical accepts, scores and final graph) — the
    bit-for-bit reproducibility contract of the sharded subsystem.
    """
    from .parallel import run_chains

    _, measurements, seed_graph = _build_workload(edges, seed, epsilon)

    baseline = _run_chain(measurements, seed_graph, steps, seed, pow_)
    report: dict = {
        "workload": "TbI + node_degrees -> process-parallel edge-swap chains",
        "edges": edges,
        "steps": steps,
        "pow": pow_,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "start_method": start_method
        or os.environ.get("REPRO_SHARD_START_METHOD", "spawn"),
        "single_chain": baseline,
        "scaling": [],
    }

    def run(processes: int | None, chains: int):
        return run_chains(
            measurements,
            seed_graph,
            steps=steps,
            chains=chains,
            pow_=pow_,
            rng=seed,
            processes=processes,
            start_method=start_method,
        )

    single_process_one = None
    for processes in process_counts:
        started = time.perf_counter()
        result = run(processes, chains=processes)
        wall = time.perf_counter() - started
        if processes == 1:
            single_process_one = result
        total_steps = sum(chain.result.steps for chain in result.chains)
        aggregate = result.steps_per_second()
        report["scaling"].append(
            {
                "processes": processes,
                "chains": processes,
                "total_steps": total_steps,
                "aggregate_steps_per_second": aggregate,
                "wall_seconds": wall,
                "wall_steps_per_second": total_steps / wall if wall > 0 else 0.0,
                "speedup_vs_single": aggregate / baseline["steps_per_second"]
                if baseline["steps_per_second"] > 0
                else 0.0,
                "accepted": [chain.result.accepted for chain in result.chains],
                "log_scores": [chain.log_score for chain in result.chains],
            }
        )

    # Bit-identity: the same spawned generator must walk the same chain
    # whether it runs in this process (threads) or in a pool worker.
    thread = run(None, chains=1).chains[0]
    process = (single_process_one or run(1, chains=1)).chains[0]
    report["agreement"] = {
        "accepted_equal": thread.result.accepted == process.result.accepted,
        "log_score_diff": abs(thread.log_score - process.log_score),
        "max_distance_diff": max(
            abs(thread.distances[name] - process.distances[name])
            for name in thread.distances
        ),
        "graphs_equal": thread.graph == process.graph,
    }
    return report


def mcmc_throughput(
    edge_counts: Sequence[int] = (2000, 10000),
    steps: int = 2000,
    seed: int = 0,
    pow_: float = 1.0,
    epsilon: float = 0.1,
    processes: int | None = None,
    start_method: str | None = None,
) -> dict:
    """Time one TbI+degree-driven MCMC chain per graph size.

    ``pow_`` defaults to 1 so a healthy fraction of proposals is accepted and
    the accepted-path (state-mutating) cost dominates, matching real
    synthesis workloads.  ``processes=P`` appends a ``chain_scaling``
    section (:func:`chain_scaling_comparison` at the largest size) comparing
    process-parallel chains at 1 and ``P`` workers.
    """
    report: dict = {
        "workload": "TbI + node_degrees -> edge-swap MCMC",
        "engine": GraphSynthesizer.backend,
        "steps": steps,
        "pow": pow_,
        "epsilon": epsilon,
        "seed": seed,
        "sizes": [],
    }
    for edges in edge_counts:
        if edges < 2:
            raise ValueError("the benchmark graph needs at least two edges")
        graph, measurements, seed_graph = _build_workload(edges, seed, epsilon)
        entry: dict = {
            "edges": edges,
            "nodes": graph.number_of_nodes(),
            "degree_sum_of_squares": int(graph.degree_sum_of_squares()),
            "cpu_count": os.cpu_count(),
        }
        entry.update(_run_chain(measurements, seed_graph, steps, seed, pow_))
        report["sizes"].append(entry)
    if processes:
        report["chain_scaling"] = chain_scaling_comparison(
            edges=max(edge_counts),
            steps=steps,
            process_counts=tuple(sorted({1, processes})),
            seed=seed,
            pow_=pow_,
            epsilon=epsilon,
            start_method=start_method,
        )
    return report


def format_mcmc_throughput(report: dict) -> str:
    """Render a :func:`mcmc_throughput` report as the CLI table."""
    from ..experiments import format_table

    rows = [
        (
            entry["edges"],
            entry["degree_sum_of_squares"],
            entry["steps"],
            entry["accepted"],
            f"{entry['steps_per_second']:.1f}",
            f"{entry['build_seconds']:.3f}",
            entry["state_entries"],
            f"{entry['eager_agreement']['max_distance_rel_diff']:.1e}",
        )
        for entry in report["sizes"]
    ]
    table = format_table(
        [
            "edges",
            "sum d^2",
            "steps",
            "accepted",
            "steps/s",
            "build s",
            "state entries",
            "vs eager",
        ],
        rows,
        title=(
            f"MCMC synthesis ({report['engine']} engine) — {report['workload']} "
            f"(pow={report['pow']}, cpu_count={report['sizes'][0]['cpu_count']})"
        ),
    )
    scaling = report.get("chain_scaling")
    if scaling:
        table += "\n\n" + format_chain_scaling(scaling)
    return table


def format_chain_scaling(report: dict) -> str:
    """Render a :func:`chain_scaling_comparison` report as a CLI table."""
    from ..experiments import format_table

    rows = [
        (
            row["processes"],
            row["total_steps"],
            f"{row['aggregate_steps_per_second']:.1f}",
            f"{row['speedup_vs_single']:.2f}x",
            f"{row['wall_seconds']:.2f}",
        )
        for row in report["scaling"]
    ]
    table = format_table(
        ["processes", "steps", "agg steps/s", "vs 1 chain", "wall s"],
        rows,
        title=(
            f"Process-parallel chains — {report['edges']} edges, "
            f"cpu_count={report['cpu_count']}, "
            f"start_method={report['start_method']}"
        ),
    )
    agreement = report["agreement"]
    table += (
        f"\nthread/process bit-identity: accepted_equal="
        f"{agreement['accepted_equal']}, graphs_equal={agreement['graphs_equal']}, "
        f"max_distance_diff={agreement['max_distance_diff']:.2e}"
    )
    return table
