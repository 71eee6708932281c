"""The serving workloads: ``serve-eval`` and ``serve-durable``.

``serve-eval`` drives an in-process ``MeasurementService()`` with every
default (in-memory ledger, ``eager`` executor, default worker count) through
``submit`` from one sender thread.  Every request has a distinct ε, so the
answer cache never hits and each answer evaluates Q(A): executor work
dominates, while the durable ledger and HTTP are bypassed.

``serve-durable`` is the ``repro serve --ledger`` stack run in-process:
``ServiceHTTPServer`` over ``MeasurementService(ledger_path=...)``, driven by
``ServiceClient`` from two sender threads with cheap queries.  About a third
of the requests repeat an earlier released (tenant, query, ε) and are cache
hits, which puts the median inside the misses' latencies rather than on the
gap between hits and misses.
Every miss pays a durable charge, a release put and an audit append; every
hit still pays an audit append.  At the end the service is shut down and
reopened on the same file.
"""

from __future__ import annotations

import bisect
import os
import shutil
import threading
import time
from collections import defaultdict
from concurrent.futures import wait
from dataclasses import dataclass
from typing import Any

import numpy as np

from loadgen import Arrival, poisson_offsets, run_open_loop
from stats import due_latencies, goodput, median

#: ε of request ``i`` is ``(EPSILON_BASE + i) * EPSILON_UNIT``: distinct per
#: request and dyadic, so every sum of charges is exact in binary floating
#: point and the budget gate can demand equality, in any summation order.
EPSILON_UNIT = 2.0**-20
EPSILON_BASE = 1024
#: Per-tenant budget, far above what a run spends.
TOTAL_EPSILON = 4096.0


@dataclass(frozen=True)
class ServeConfig:
    """Sizes, rates and limits of one serving workload."""

    nodes: int
    edges: int
    tenants: int
    tenant_weights: tuple[float, ...]
    queries: tuple[str, ...]
    query_weights: tuple[float, ...]
    #: Requests/second of the latency phase.
    nominal_rate: float
    #: Requests/second of the goodput phase (0: no such phase).
    overload_rate: float
    #: Share of the run's seconds given to the latency phase.
    nominal_share: float
    #: Latency limit on every answer, seconds from its due time.
    latency_limit: float
    #: Share of requests that repeat an earlier released measurement.
    repeat_share: float
    senders: int
    setup_rounds: int

    def describe(self) -> dict[str, Any]:
        return {
            "graph": f"erdos_renyi(nodes={self.nodes}, edges={self.edges})",
            "tenants": self.tenants,
            "tenant_weights": list(self.tenant_weights),
            "queries": list(self.queries),
            "query_weights": list(self.query_weights),
            "nominal_rate_per_s": self.nominal_rate,
            "overload_rate_per_s": self.overload_rate,
            "latency_limit_ms": self.latency_limit * 1000.0,
            "repeat_share": self.repeat_share,
            "senders": self.senders,
        }


SERVE_EVAL = ServeConfig(
    nodes=150,
    edges=300,
    tenants=4,
    tenant_weights=(0.50, 0.25, 0.15, 0.10),
    # Listed cheapest first.  The weights put the median inside one query's
    # cluster of latencies (tbi), not on the gap between two clusters where
    # it would jump with the seed's mix.
    queries=("degree-ccdf", "tbi", "jdd", "tbd"),
    query_weights=(0.40, 0.30, 0.25, 0.05),
    nominal_rate=45.0,
    overload_rate=300.0,
    nominal_share=0.9,
    latency_limit=1.0,
    repeat_share=0.0,
    senders=1,
    setup_rounds=30,
)

SERVE_DURABLE = ServeConfig(
    nodes=250,
    edges=500,
    tenants=8,
    tenant_weights=(0.125,) * 8,
    queries=("degree-ccdf", "stars", "node-count"),
    query_weights=(1 / 3, 1 / 3, 1 / 3),
    nominal_rate=40.0,
    overload_rate=0.0,
    nominal_share=1.0,
    latency_limit=0.5,
    repeat_share=0.35,
    senders=2,
    setup_rounds=9,
)

#: A repeat only picks measurements first sent at least this long before,
#: so the original has normally been released and the repeat is a hit.
REPEAT_MIN_AGE = 1.0


def build_inputs(config: ServeConfig, seed: int) -> dict[str, Any]:
    """The workload's graph and the exact answer support of each query."""
    from repro.core.queryable import PrivacySession
    from repro.graph.generators import erdos_renyi
    from repro.service import default_query_builders

    graph = erdos_renyi(config.nodes, config.edges, rng=seed)
    edges = list(graph.edges())
    # The reference: each query's exact output records on the same data,
    # evaluated outside the service.  A released answer must cover exactly
    # these records (noise changes the weights, never the support).
    reference = PrivacySession()
    protected = reference.protect("edges", edges)
    builders = default_query_builders()
    support = {
        query: {record for record, _ in builders[query](protected).evaluate_unprotected().items()}
        for query in config.queries
    }
    return {"edges": edges, "support": support}


def schedule(config: ServeConfig, seed: int, seconds: float) -> list[Arrival]:
    """The seeded arrivals of both phases (latency, then goodput)."""
    rng = np.random.default_rng([seed, 0x5E7E])
    tenants = tenant_names(config)
    weights = np.asarray(config.tenant_weights, dtype=float)
    weights = weights / weights.sum()
    mix = np.asarray(config.query_weights, dtype=float)
    mix = mix / mix.sum()
    phases = [("nominal", config.nominal_rate, seconds * config.nominal_share)]
    if config.overload_rate > 0:
        phases.append(
            ("overload", config.overload_rate, seconds * (1.0 - config.nominal_share))
        )
    arrivals: list[Arrival] = []
    fresh = 0
    for phase, rate, duration in phases:
        originals: list[Arrival] = []  # this phase's fresh measurements
        ages: list[float] = []  # their offsets, ascending
        for offset in poisson_offsets(rng, rate, duration):
            old = bisect.bisect_right(ages, offset - REPEAT_MIN_AGE)
            if old and rng.random() < config.repeat_share:
                source = originals[int(rng.integers(old))]
                arrival = Arrival(
                    len(arrivals), offset, source.tenant, source.query,
                    source.epsilon, phase,
                )
            else:
                arrival = Arrival(
                    len(arrivals),
                    offset,
                    tenants[int(rng.choice(len(tenants), p=weights))],
                    config.queries[int(rng.choice(len(config.queries), p=mix))],
                    (EPSILON_BASE + fresh) * EPSILON_UNIT,
                    phase,
                )
                fresh += 1
                originals.append(arrival)
                ages.append(offset)
            arrivals.append(arrival)
    return arrivals


# ----------------------------------------------------------------------
# Results shared by both workloads
# ----------------------------------------------------------------------
def released_values(answer: Any) -> list[tuple[Any, float]]:
    """``[(record, noisy value)]`` of an in-process or HTTP answer."""
    if isinstance(answer, dict):
        return [(as_record(record), value) for record, value in answer["values"]]
    return list(answer.result.items())


def as_record(value: Any) -> Any:
    """JSON arrays back to the tuples the service released."""
    if isinstance(value, list):
        return tuple(as_record(element) for element in value)
    return value


def charged(answer: Any) -> float:
    return (answer["charged"] if isinstance(answer, dict) else answer.charged).get(
        "edges", 0.0
    )


def is_cached(answer: Any) -> bool:
    return answer["cached"] if isinstance(answer, dict) else answer.cached


def check_answers(
    arrivals: list[Arrival], support: dict[str, set], failures: list[str]
) -> dict[str, float]:
    """Gate the released answers; returns ε charged per tenant on acked answers.

    * every arrival was answered or failed (nothing left unresolved);
    * every answer covers exactly the exact Q(A) support of its query;
    * every cache replay is bit-identical to the original release.
    """
    spent: dict[str, float] = defaultdict(float)
    originals: dict[tuple[str, str, float], list] = {}
    replays = []
    for arrival in arrivals:
        if arrival.done is None and arrival.error is None:
            failures.append(f"request {arrival.index} was never resolved")
            continue
        if arrival.answer is None:
            continue
        values = released_values(arrival.answer)
        records = {record for record, _ in values}
        if records != support[arrival.query]:
            failures.append(
                f"request {arrival.index} ({arrival.query}) released "
                f"{len(records)} records, Q(A) has {len(support[arrival.query])}"
            )
        key = (arrival.tenant, arrival.query, arrival.epsilon)
        spent[arrival.tenant] += charged(arrival.answer)
        if is_cached(arrival.answer):
            replays.append((arrival, key, values))
        elif key in originals:
            failures.append(f"request {arrival.index} released {key} a second time")
        else:
            originals[key] = values
    for arrival, key, values in replays:
        if values != originals.get(key):
            failures.append(f"request {arrival.index} replayed {key} with other values")
    return dict(spent)


def phase_counts(arrivals: list[Arrival]) -> dict[str, dict[str, int]]:
    counts: dict[str, dict[str, int]] = {}
    for arrival in arrivals:
        phase = counts.setdefault(arrival.phase, {"sent": 0, "succeeded": 0, "failed": 0})
        phase["sent"] += 1
        if arrival.answer is not None:
            phase["succeeded"] += 1
        else:
            phase["failed"] += 1
    return counts


def nominal_latencies_ms(arrivals: list[Arrival]) -> list[float]:
    """Due-time latency of every request of the latency phase."""
    nominal = [a for a in arrivals if a.phase == "nominal"]
    return [
        value * 1000.0
        for value in due_latencies([a.due for a in nominal], [a.done for a in nominal])
    ]


def outcome_metrics(config: ServeConfig, arrivals: list[Arrival]) -> dict[str, float]:
    """Goodput and failure share of one pass.

    Goodput counts the answers of the goodput phase that met the latency
    limit, per second from the phase's first due time to its last answer:
    a backlog left at the end of the phase stretches the divisor.
    """
    phase = "overload" if config.overload_rate > 0 else "nominal"
    members = [a for a in arrivals if a.phase == phase]
    latencies = due_latencies([a.due for a in members], [a.done for a in members])
    began = min(a.due for a in members)
    ended = max([a.due for a in members] + [a.done for a in members if a.done])
    failed = sum(1 for a in arrivals if a.answer is None)
    return {
        "goodput_per_s": goodput(latencies, config.latency_limit, ended - began),
        "failed_ratio": failed / len(arrivals),
    }


def pool_size(service: Any) -> int | None:
    """Worker threads the scheduler actually runs (the default is derived)."""
    return getattr(getattr(service.scheduler, "_pool", None), "_max_workers", None)


class Inflight:
    """(tenant, query, ε) -> ids of requests sent and not yet answered.

    Spans recorded on the service's own threads carry no request id; the
    tracer links them to the requests they served through this map.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._keys: dict[tuple[str, str, float], list[int]] = defaultdict(list)

    def add(self, arrival: Arrival) -> None:
        with self._lock:
            self._keys[(arrival.tenant, arrival.query, arrival.epsilon)].append(
                arrival.index
            )

    def remove(self, arrival: Arrival) -> None:
        with self._lock:
            members = self._keys.get((arrival.tenant, arrival.query, arrival.epsilon))
            if members and arrival.index in members:
                members.remove(arrival.index)

    def lookup(self, tenant: str, query: str, epsilon: float) -> list[int]:
        with self._lock:
            return list(self._keys.get((tenant, query, float(epsilon)), ()))


# ----------------------------------------------------------------------
# serve-eval
# ----------------------------------------------------------------------
def tenant_names(config: ServeConfig) -> list[str]:
    return [f"tenant-{index}" for index in range(config.tenants)]


def run_eval(
    config: ServeConfig, inputs: dict[str, Any], seed: int, seconds: float, tracer=None
) -> dict[str, Any]:
    """One pass of ``serve-eval``: set up, both phases, gates."""
    from repro.service import MeasurementService

    # Set-up is the service plus every tenant session, built from scratch
    # several times; the last build serves the run.
    setup: list[float] = []
    service = None
    for _ in range(config.setup_rounds):
        if service is not None:
            service.shutdown()
        began = time.perf_counter()
        service = MeasurementService()
        for name in tenant_names(config):
            service.create_session(
                name, inputs["edges"], total_epsilon=TOTAL_EPSILON, seed=seed
            )
        setup.append(time.perf_counter() - began)
    arrivals = schedule(config, seed, seconds)
    inflight = Inflight()
    if tracer is not None:
        from layers import instrument_service

        instrument_service(tracer, service, inflight, config)
    cache_before = service.cache.stats()

    futures = []
    roots: dict[int, int] = {}

    def send(arrival: Arrival) -> None:
        inflight.add(arrival)

        def finished(future, arrival=arrival) -> None:
            done = time.perf_counter()
            error = future.exception()
            if error is None:
                arrival.answer = future.result()
                arrival.done = done
            else:
                arrival.error = error
            inflight.remove(arrival)

        try:
            if tracer is None:
                future = service.submit(arrival.tenant, arrival.query, arrival.epsilon)
            else:
                roots[arrival.index] = tracer.new_id()
                with tracer.request(roots[arrival.index], arrival.index):
                    future = service.submit(
                        arrival.tenant, arrival.query, arrival.epsilon
                    )
        except Exception as exc:  # noqa: BLE001 - a refused request is a failure
            arrival.error = exc
            inflight.remove(arrival)
            return
        futures.append(future)
        future.add_done_callback(finished)

    failures: list[str] = []
    for phase in ("nominal", "overload"):
        members = [a for a in arrivals if a.phase == phase]
        if not members:
            continue
        run_open_loop(members, send, senders=config.senders)
        _, pending = wait(futures, timeout=120.0)
        if pending:
            failures.append(f"{len(pending)} futures unresolved after the {phase} phase")
    cache_after = service.cache.stats()
    executor = service.session("tenant-0").session.executor
    spent = check_answers(arrivals, inputs["support"], failures)
    for tenant in tenant_names(config):
        recorded = service.budget_report(tenant)["edges"]["spent"]
        if recorded != spent.get(tenant, 0.0):
            failures.append(
                f"{tenant}: ledger spent {recorded!r}, acked answers charged "
                f"{spent.get(tenant, 0.0)!r}"
            )
    service.shutdown()
    result = {
        "arrivals": arrivals,
        "setup": setup,
        "failures": failures,
        "metrics": outcome_metrics(config, arrivals),
        "latencies_ms": nominal_latencies_ms(arrivals),
        "phases": phase_counts(arrivals),
        "cache": {
            key: cache_after[key] - cache_before[key] for key in ("hits", "misses")
        },
        "executor": f"{type(executor).__name__}(warm={getattr(executor, 'warm', None)})",
        "workers": pool_size(service),
        "roots": roots,
    }
    return result


# ----------------------------------------------------------------------
# serve-durable
# ----------------------------------------------------------------------
def run_durable(
    config: ServeConfig,
    inputs: dict[str, Any],
    seed: int,
    seconds: float,
    workdir: str,
    tracer=None,
) -> dict[str, Any]:
    """One pass of ``serve-durable``: set up, the phase, shutdown, reopen, gates."""
    from repro.service import MeasurementService, ServiceClient, ServiceHTTPServer

    os.makedirs(workdir, exist_ok=True)
    # Set-up is opening a fresh ledger, starting the server and creating
    # every tenant session through the client, several times over; the
    # last build serves the run.
    setup: list[float] = []
    for round_index in range(config.setup_rounds):
        ledger = os.path.join(workdir, f"ledger-{round_index}.sqlite")
        began = time.perf_counter()
        service = MeasurementService(ledger_path=ledger)
        server = ServiceHTTPServer(("127.0.0.1", 0), service)
        serving = server.serve_in_background()
        client = ServiceClient(server.url, timeout=60.0)
        for name in tenant_names(config):
            client.create_session(
                name, inputs["edges"], total_epsilon=TOTAL_EPSILON, seed=seed
            )
        setup.append(time.perf_counter() - began)
        if round_index + 1 < config.setup_rounds:
            server.stop()
            serving.join(timeout=30.0)
    failures: list[str] = []
    try:
        arrivals = schedule(config, seed, seconds)
        inflight = Inflight()
        if tracer is not None:
            from layers import instrument_client, instrument_service

            instrument_service(tracer, service, inflight, config)
            instrument_client(tracer, client)
        cache_before = service.cache.stats()
        roots: dict[int, int] = {}

        def send(arrival: Arrival) -> None:
            inflight.add(arrival)
            try:
                if tracer is None:
                    answer = client.measure(arrival.tenant, arrival.query, arrival.epsilon)
                else:
                    roots[arrival.index] = tracer.new_id()
                    with tracer.request(roots[arrival.index], arrival.index):
                        answer = client.measure(
                            arrival.tenant, arrival.query, arrival.epsilon
                        )
                arrival.done = time.perf_counter()
                arrival.answer = answer
            except Exception as exc:  # noqa: BLE001 - a refused request is a failure
                arrival.error = exc
            finally:
                inflight.remove(arrival)

        run_open_loop(arrivals, send, senders=config.senders)
        cache_after = service.cache.stats()
        executor = service.session("tenant-0").session.executor
        executor_name = f"{type(executor).__name__}(warm={getattr(executor, 'warm', None)})"
        workers = pool_size(service)
    finally:
        server.stop()
        serving.join(timeout=30.0)

    spent = check_answers(arrivals, inputs["support"], failures)
    released = defaultdict(int)
    for arrival in arrivals:
        if arrival.answer is not None and not is_cached(arrival.answer):
            released[arrival.tenant] += 1
    recovery = reopen(config, ledger, arrivals, spent, released, failures, tracer)
    shutil.rmtree(workdir, ignore_errors=True)
    return {
        "arrivals": arrivals,
        "setup": setup,
        "failures": failures,
        "metrics": outcome_metrics(config, arrivals),
        "latencies_ms": nominal_latencies_ms(arrivals),
        "phases": phase_counts(arrivals),
        "cache": {
            key: cache_after[key] - cache_before[key] for key in ("hits", "misses")
        },
        "executor": executor_name,
        "workers": workers,
        "recovery": recovery,
        "roots": roots,
    }


#: Reopen the ledger this many times; recovery_s is their median.
REOPENS = 3


def reopen(
    config: ServeConfig,
    ledger: str,
    arrivals: list[Arrival],
    spent: dict[str, float],
    released: dict[str, int],
    failures: list[str],
    tracer=None,
) -> dict[str, Any]:
    """Reopen the service on the run's ledger until it serves; gate recovery.

    After each reopen the recovered spend and the count of released answers
    of every tenant must equal what was acknowledged, and a replay of a
    released answer must be bit-identical to it.
    """
    from repro.service import MeasurementService, ServiceClient, ServiceHTTPServer
    from repro.service.registry import SessionRegistry

    originals = [
        a for a in arrivals if a.answer is not None and not is_cached(a.answer)
    ]
    timings: list[float] = []
    load_persisted: list[float] = []
    for attempt in range(REOPENS):
        probe = originals[(attempt * 7919) % len(originals)]
        original_load = SessionRegistry.load_persisted
        if tracer is not None:
            def timed_load(registry, _original=original_load):
                began = time.perf_counter()
                try:
                    return _original(registry)
                finally:
                    load_persisted.append(time.perf_counter() - began)

            SessionRegistry.load_persisted = timed_load
        began = time.perf_counter()
        try:
            service = MeasurementService(ledger_path=ledger)
        finally:
            SessionRegistry.load_persisted = original_load
        server = ServiceHTTPServer(("127.0.0.1", 0), service)
        serving = server.serve_in_background()
        try:
            client = ServiceClient(server.url, timeout=60.0)
            replay = client.measure(probe.tenant, probe.query, probe.epsilon)
            timings.append(time.perf_counter() - began)
            if not replay["cached"] or released_values(replay) != released_values(
                probe.answer
            ):
                failures.append(f"reopen {attempt}: replay of {probe.index} differs")
            for tenant in tenant_names(config):
                recovered = client.budget(tenant)["edges"]["spent"]
                if recovered != spent.get(tenant, 0.0):
                    failures.append(
                        f"reopen {attempt}: {tenant} recovered spend {recovered!r}, "
                        f"acked {spent.get(tenant, 0.0)!r}"
                    )
                count = len(service.store.releases_for(tenant))
                if count != released.get(tenant, 0):
                    failures.append(
                        f"reopen {attempt}: {tenant} has {count} released answers, "
                        f"acked {released.get(tenant, 0)}"
                    )
        finally:
            server.stop()
            serving.join(timeout=30.0)
    return {"recovery_s": median(timings), "load_persisted_s": load_persisted}
