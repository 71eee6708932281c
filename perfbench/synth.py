"""The ``synth`` workload: MCMC graph synthesis with the library defaults.

``GraphSynthesizer(measurements, seed_graph, rng=seed)`` is built without
``backend`` or ``pow_``, so it runs whatever the library defaults to (the
report records the backend that ran).  The measurements are TbI and node
degrees at ε=0.5 on a 10k-edge ER graph, and the seed graph is its
``random_twin``.  Only proposal, delta propagation and scoring run, so engine
work shows here and nowhere else.

The chain runs a fixed number of steps from a fixed seed, because the step
rate drifts along the chain; the run repeats that chain (construction
included) until its time is used, at least twice, so the determinism gate
can compare repeats.  Each metric is the median over repeats of that
repeat's figure, so one repeat slowed by the host does not move it.
"""

from __future__ import annotations

import gc
import time
from typing import Any

from stats import median

NODES = 5000
EDGES = 10_000
EPSILON = 0.5
#: MCMC steps of one chain.
STEPS = 2500
MIN_REPEATS = 2
#: Largest allowed gap between the incremental score and a full re-score,
#: relative to the score's magnitude.
RESCORE_TOLERANCE = 1e-9


def build_inputs(seed: int) -> dict[str, Any]:
    from repro.analyses import node_degrees, protect_graph, triangles_by_intersect_query
    from repro.core.queryable import PrivacySession
    from repro.graph.generators import erdos_renyi, random_twin

    graph = erdos_renyi(NODES, EDGES, rng=seed)
    session = PrivacySession(seed=seed)
    protected = protect_graph(session, graph)
    measurements = list(
        session.measure(
            (triangles_by_intersect_query(protected), EPSILON, "tbi"),
            (node_degrees(protected), EPSILON, "degrees"),
        )
    )
    return {"measurements": measurements, "seed_graph": random_twin(graph, rng=seed)}


def describe() -> dict[str, Any]:
    return {
        "graph": f"erdos_renyi(nodes={NODES}, edges={EDGES})",
        "measurements": ["tbi", "node-degrees"],
        "epsilon": EPSILON,
        "seed_graph": "random_twin",
        "steps_per_chain": STEPS,
    }


def run_synth(
    inputs: dict[str, Any], seed: int, seconds: float, tracer=None
) -> dict[str, Any]:
    """Repeat the seeded chain until ``seconds`` are used; gate each repeat."""
    from repro.inference.synthesizer import GraphSynthesizer

    failures: list[str] = []
    setup: list[float] = []
    rates: list[float] = []
    step_times: list[list[float]] = []
    outcomes: list[tuple[int, float]] = []
    backend = None
    state_entries = 0
    began = time.perf_counter()
    while True:
        # Start another repeat only while it is expected to end in time.
        elapsed = time.perf_counter() - began
        if len(outcomes) >= MIN_REPEATS and elapsed * (1 + 1 / len(outcomes)) > seconds:
            break
        gc.collect()
        started = time.perf_counter()
        synthesizer = GraphSynthesizer(inputs["measurements"], inputs["seed_graph"], rng=seed)
        setup.append(time.perf_counter() - started)
        backend = synthesizer.backend
        if tracer is None:
            step_times.append([])
            time_steps(synthesizer.sampler, step_times[-1])
        else:
            from layers import instrument_synth

            instrument_synth(tracer, synthesizer)
        started = time.perf_counter()
        result = synthesizer.run(STEPS)
        rates.append(STEPS / (time.perf_counter() - started))
        outcomes.append((result.accepted, result.log_score))
        incremental = synthesizer.log_score
        synthesizer.tracker.resynchronize()
        rescored = synthesizer.tracker.log_score()
        if abs(rescored - incremental) > RESCORE_TOLERANCE * max(1.0, abs(incremental)):
            failures.append(
                f"repeat {len(outcomes)}: incremental score {incremental!r}, "
                f"full re-score {rescored!r}"
            )
        state_entries = synthesizer.state_entry_count()
        del synthesizer
    if len(set(outcomes)) != 1:
        failures.append(f"seeded chains disagree (accepted, log score): {outcomes}")
    accepted = outcomes[0][0]
    return {
        "failures": failures,
        "setup": setup,
        "step_times": step_times,
        "rates": rates,
        "metrics": {"steps_per_s": median(rates)},
        "repeats": len(outcomes),
        "accepted": accepted,
        "steps": STEPS,
        "log_score": outcomes[0][1],
        "state_entries": state_entries,
        "backend": backend,
    }


def time_steps(sampler: Any, durations: list[float]) -> None:
    """Record each MCMC step's wall time (two clock reads per step)."""
    step = sampler.step
    clock = time.perf_counter

    def timed() -> bool:
        started = clock()
        accepted = step()
        durations.append(clock() - started)
        return accepted

    sampler.step = timed
