"""Probabilistic inference: MCMC synthesis of datasets from measurements.

Phase 2 of the paper's workflow fits a synthetic dataset to the released
noisy measurements with Metropolis–Hastings.  One engine scores proposals:
the measurement plans compile into a warm
:class:`~repro.dataflow.engine.DataflowEngine` (the incremental engine of
Section 4.3), :class:`ScoreTracker` keeps ``Σ_i ε_i ‖Q_i(A) − m_i‖₁`` current
as deltas flow through it, and :class:`IncrementalMetropolisHastings` applies,
scores and accepts or rolls back each move, so a step costs O(changed
intermediate data).

``GraphSynthesizer.run(chains=N)`` (or :func:`repro.inference.parallel
.run_chains`) runs N independent chains with spawned RNG streams — as threads,
or with ``processes=N`` in worker processes — and adopts the best-scoring
graph.
"""

from .mcmc import IncrementalMetropolisHastings, MCMCResult, MCMCStepRecord
from .random_walks import EdgeSwapWalk, RecordReplacementWalk, edge_swap_delta
from .scoring import MeasurementScore, ScoreTracker
from .seed import (
    DegreeSequenceMeasurements,
    SEED_EDGE_USES,
    build_seed_graph,
    measure_degree_statistics,
    seed_graph_from_edges,
)
from .synthesizer import (
    DEFAULT_POW,
    GraphSynthesizer,
    SynthesisOutcome,
    synthesize_graph,
)

__all__ = [
    "IncrementalMetropolisHastings",
    "MCMCResult",
    "MCMCStepRecord",
    "EdgeSwapWalk",
    "RecordReplacementWalk",
    "edge_swap_delta",
    "MeasurementScore",
    "ScoreTracker",
    "ChainOutcome",
    "ParallelSynthesisResult",
    "run_chains",
    "DegreeSequenceMeasurements",
    "SEED_EDGE_USES",
    "measure_degree_statistics",
    "build_seed_graph",
    "seed_graph_from_edges",
    "GraphSynthesizer",
    "SynthesisOutcome",
    "synthesize_graph",
    "DEFAULT_POW",
]


def __getattr__(name: str):
    # Lazy re-export: the parallel driver pulls in the executor pool, which
    # single-chain users (every CLI experiment by default) should not pay to
    # import.
    if name in ("ChainOutcome", "ParallelSynthesisResult", "run_chains"):
        from . import parallel

        return getattr(parallel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
