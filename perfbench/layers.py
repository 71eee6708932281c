"""Layer boundaries of the traced run and the per-layer numbers read from them.

``instrument_*`` wrap the public methods of each layer's objects (see
:class:`spans.Tracer`); ``*_layer_metrics`` turn the recorded spans into the
``per_layer`` metrics of ``BENCHMARK.json``.  A workload reports every
per-layer metric: a layer its requests never reach reports zero work.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from stats import clipped, median, percentile, self_time, union_length
from spans import Tracer

#: Every per-layer metric with its unit, in report order.  Times expand to
#: ``.p50`` and ``.p99`` entries.
TIMES = (
    "service.http.overhead_ms",
    "service.scheduler.submit_ms",
    "service.scheduler.queue_wait_ms",
    "core.measure_ms",
    "core.executor.evaluate_ms",
    "core.laplace.noise_ms",
    "core.budget.charge_ms",
    "persistence.wal.charge_ms",
    "persistence.wal.append_audit_ms",
    "persistence.wal.put_release_ms",
    "persistence.wal.get_release_ms",
    "service.registry.record_ms",
    "inference.mcmc.step_ms",
    "inference.engine.push_ms",
    "inference.tracker.log_score_ms",
    "inference.random_walks.propose_ms",
    "loadgen.late_ms",
    "request.unaccounted_ms",
)
SCALARS = (
    ("service.scheduler.batch_size", "count"),
    ("service.scheduler.rejected", "count"),
    ("core.executor.plans_per_call", "count"),
    ("core.laplace.sample_calls_per_ack", "count"),
    ("persistence.wal.writes_per_ack", "count"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.registry.records_per_ack", "count"),
    ("service.registry.load_persisted_s", "s"),
    ("inference.engine.pushes_per_step", "count"),
    ("inference.mcmc.accept_ratio", "ratio"),
    ("inference.engine.state_entries", "count"),
    ("tracing.latency_p50_ratio", "ratio"),
    ("tracing.goodput_ratio", "ratio"),
)


def metric_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric."""
    units = {}
    for name in TIMES:
        units[f"{name}.p50"] = "ms"
        units[f"{name}.p99"] = "ms"
    units.update(dict(SCALARS))
    return units


def put_times(metrics: dict[str, float], name: str, values_ms: list[float]) -> None:
    """p50 and p99 of a layer's times.

    The p99 follows the benchmark's rule (ten samples beyond it); a layer
    with fewer than 1000 samples reports its maximum instead, an upper
    estimate, and the sample count goes to the report.
    """
    if not values_ms:
        return
    metrics[f"{name}.p50"] = median(values_ms)
    try:
        metrics[f"{name}.p99"] = percentile(values_ms, 99)
    except ValueError:
        metrics[f"{name}.p99"] = max(values_ms)


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
#: Write transactions each durable-store method commits.
STORE_WRITES = {"charge": 2, "append_audit": 1, "put_release": 1, "snapshot": 1}


def instrument_service(tracer: Tracer, service: Any, inflight: Any, config: Any) -> None:
    """Wrap the service's layer objects and every tenant session's."""
    plan_query: dict[tuple[str, int], str] = {}

    def by_key(tenant: str, query: str | None, epsilon: float) -> list[int]:
        return inflight.lookup(tenant, query, epsilon) if query else []

    for index in range(config.tenants):
        tenant = f"tenant-{index}"
        hosted = service.session(tenant)
        for query in hosted.query_names():
            plan_query[(tenant, id(hosted.queryable(query).plan))] = query
        session = hosted.session

        def measure_link(*specs: Any, _tenant: str = tenant) -> list[int]:
            served: list[int] = []
            for _queryable, epsilon, query in specs:
                served += by_key(_tenant, query, epsilon)
            return served

        tracer.wrap(session, "measure", "core.measure", link=measure_link)
        tracer.wrap(
            session.executor,
            "evaluate_many",
            "core.executor.evaluate_many",
            tally=lambda plans: len(plans),
        )
        tracer.wrap(session.ledger, "charge", "core.budget.charge")
        tracer.wrap(session.noise, "sample", "core.laplace.sample")

    def record_link(session: str, action: str, **detail: Any) -> list[int]:
        if "query" in detail:
            return by_key(session, detail["query"], detail["epsilon"])
        served: list[int] = []
        for query, epsilon in zip(detail.get("queries", ()), detail.get("epsilons", ())):
            served += by_key(session, query, epsilon)
        return served

    def cache_link(scope: str, plan: Any, epsilon: float, *_rest: Any) -> list[int]:
        return by_key(scope, plan_query.get((scope, id(plan))), epsilon)

    def release_link(scope: str, query: str, epsilon: float, *_rest: Any) -> list[int]:
        return by_key(scope, query, epsilon)

    tracer.wrap(service, "submit", "service.scheduler.submit")
    tracer.wrap(
        service,
        "measure",
        "service.measure",
        link=lambda session, query, epsilon, **_kw: by_key(session, query, epsilon),
    )
    tracer.wrap(service.registry, "record", "service.registry.record", link=record_link)
    tracer.wrap(service.registry, "get", "service.registry.get")
    tracer.wrap(service.cache, "get", "service.cache.get", link=cache_link)
    tracer.wrap(service.cache, "put", "service.cache.put", link=cache_link)
    if service.store is not None:
        for method, writes in STORE_WRITES.items():
            tracer.wrap(
                service.store,
                method,
                f"persistence.wal.{method}",
                link=release_link if method == "put_release" else None,
                tally=lambda *_a, _writes=writes, **_k: _writes,
            )
        tracer.wrap(
            service.store, "get_release", "persistence.wal.get_release", link=release_link
        )


def instrument_client(tracer: Tracer, client: Any) -> None:
    """Time the HTTP client's round trip (on the sender threads)."""
    tracer.wrap(client, "measure", "service.http.client")


def instrument_synth(tracer: Tracer, synthesizer: Any) -> None:
    """Wrap the MCMC sampler, the scoring engine and the score tracker."""
    tracer.wrap(synthesizer.sampler, "step", "inference.mcmc.step")
    tracer.wrap(synthesizer.engine, "push", "inference.engine.push")
    tracer.wrap(synthesizer.tracker, "log_score", "inference.tracker.log_score")


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def durations_ms(tracer: Tracer, name: str) -> list[float]:
    return [(end - start) * 1000.0 for _, span, start, end, _, _ in tracer.spans if span == name]


def serve_layer_metrics(tracer: Tracer, result: dict[str, Any]) -> dict[str, Any]:
    """Per-layer numbers of one traced serving pass.

    Each acknowledged request owns the spans below its root (opened on its
    sender thread) and those linked to it on the service's threads, with
    everything below them.  Its queue wait runs from the end of its submit
    to the start of the first measurement call that carried it; the part of
    its latency that neither these spans, the queue wait nor the generator's
    lateness cover is reported as unaccounted.
    """
    arrivals = result["arrivals"]
    roots = result["roots"]
    index = {span[0]: span for span in tracer.spans}
    tree = tracer.children()
    served_by: dict[int, list[int]] = defaultdict(list)
    for span_id, requests in tracer.links.items():
        for request in requests:
            served_by[request].append(span_id)

    acked = [a for a in arrivals if a.answer is not None]
    queue_wait: list[float] = []
    unaccounted: list[float] = []
    http_overhead: list[float] = []
    for arrival in acked:
        root = roots[arrival.index]
        tracer.record("request", arrival.due, arrival.done, span_id=root, request=arrival.index)
        linked = [index[span_id] for span_id in served_by.get(arrival.index, ())]
        owned = [
            index[span_id]
            for span_id in tracer.descendants(
                [root] + [span[0] for span in linked], tree
            )
            if span_id != root and span_id in index
        ]
        intervals = [(arrival.due, arrival.sent)] + [(s[2], s[3]) for s in owned]
        submits = [s for s in owned if s[1] == "service.scheduler.submit"]
        measures = [s for s in linked if s[1] == "core.measure"]
        if submits and measures:
            submitted = min(s[3] for s in submits)
            started = min(s[2] for s in measures)
            if started >= submitted:
                queue_wait.append((started - submitted) * 1000.0)
                intervals.append((submitted, started))
        covered = union_length(clipped(intervals, arrival.due, arrival.done))
        unaccounted.append((arrival.done - arrival.due - covered) * 1000.0)
        clients = [s for s in owned if s[1] == "service.http.client"]
        servers = [s for s in linked if s[1] == "service.measure"]
        for client in clients:
            inside = [s for s in servers if client[2] <= s[2] and s[3] <= client[3]]
            if inside:
                server = max(inside, key=lambda s: s[3] - s[2])
                http_overhead.append(
                    ((client[3] - client[2]) - (server[3] - server[2])) * 1000.0
                )

    metrics: dict[str, Any] = {}
    acks = max(1, len(acked))
    put_times(metrics, "service.http.overhead_ms", http_overhead)
    put_times(metrics, "service.scheduler.submit_ms", durations_ms(tracer, "service.scheduler.submit"))
    put_times(metrics, "service.scheduler.queue_wait_ms", queue_wait)
    measure_spans = tracer.by_name("core.measure")
    if measure_spans:
        metrics["service.scheduler.batch_size"] = sum(
            len(tracer.links.get(span[0], ())) for span in measure_spans
        ) / len(measure_spans)
    metrics["service.scheduler.rejected"] = sum(
        1 for a in arrivals if type(a.error).__name__ == "ServiceOverloadedError"
    )
    put_times(metrics, "core.measure_ms", durations_ms(tracer, "core.measure"))
    evaluations = durations_ms(tracer, "core.executor.evaluate_many")
    put_times(metrics, "core.executor.evaluate_ms", evaluations)
    if evaluations:
        metrics["core.executor.plans_per_call"] = (
            tracer.tallies["core.executor.evaluate_many"] / len(evaluations)
        )
    noise: dict[int, float] = defaultdict(float)
    samples = 0
    for _, name, start, end, parent, _ in tracer.spans:
        if name == "core.laplace.sample":
            noise[parent] += (end - start) * 1000.0
            samples += 1
    put_times(metrics, "core.laplace.noise_ms", [noise[span[0]] for span in measure_spans])
    metrics["core.laplace.sample_calls_per_ack"] = samples / acks
    put_times(metrics, "core.budget.charge_ms", durations_ms(tracer, "core.budget.charge"))
    for method in ("charge", "append_audit", "put_release", "get_release"):
        put_times(
            metrics,
            f"persistence.wal.{method}_ms",
            durations_ms(tracer, f"persistence.wal.{method}"),
        )
    metrics["persistence.wal.writes_per_ack"] = (
        sum(tracer.tallies[f"persistence.wal.{method}"] for method in STORE_WRITES) / acks
    )
    lookups = result["cache"]["hits"] + result["cache"]["misses"]
    metrics["service.cache.hit_ratio"] = result["cache"]["hits"] / lookups if lookups else 0.0
    records = durations_ms(tracer, "service.registry.record")
    put_times(metrics, "service.registry.record_ms", records)
    metrics["service.registry.records_per_ack"] = len(records) / acks
    loads = result.get("recovery", {}).get("load_persisted_s", [])
    if loads:
        metrics["service.registry.load_persisted_s"] = median(loads)
    put_times(
        metrics,
        "loadgen.late_ms",
        [(a.sent - a.due) * 1000.0 for a in arrivals if a.sent],
    )
    put_times(metrics, "request.unaccounted_ms", unaccounted)
    return metrics


def synth_layer_metrics(tracer: Tracer, result: dict[str, Any]) -> dict[str, Any]:
    """Per-layer numbers of one traced synthesis pass."""
    metrics: dict[str, Any] = {}
    steps = durations_ms(tracer, "inference.mcmc.step")
    put_times(metrics, "inference.mcmc.step_ms", steps)
    pushes = durations_ms(tracer, "inference.engine.push")
    put_times(metrics, "inference.engine.push_ms", pushes)
    metrics["inference.engine.pushes_per_step"] = len(pushes) / max(1, len(steps))
    put_times(
        metrics,
        "inference.tracker.log_score_ms",
        durations_ms(tracer, "inference.tracker.log_score"),
    )
    put_times(
        metrics,
        "inference.random_walks.propose_ms",
        [value * 1000.0 for value in tracer.self_times().get("inference.mcmc.step", [])],
    )
    metrics["inference.mcmc.accept_ratio"] = result["accepted"] / result["steps"]
    metrics["inference.engine.state_entries"] = result["state_entries"]
    return metrics


def self_time_table(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and median self time (ms)."""
    table = {}
    for name, values in sorted(tracer.self_times().items()):
        table[name] = {
            "calls": len(values),
            "self_total_ms": sum(values) * 1000.0,
            "self_p50_ms": median(values) * 1000.0,
        }
    return table


def complete(metrics: dict[str, Any]) -> dict[str, float]:
    """Every per-layer metric, zero for layers this workload never reaches."""
    return {name: float(metrics.get(name, 0.0)) for name in metric_units()}
