"""Picklable plan and measurement protocol for worker processes.

Plans are compared by identity throughout the platform and may close over
arbitrary callables, so a live :class:`~repro.core.plan.Plan` object cannot
simply be pickled: lambdas fail outright, and shipping the object graph
twice would silently *split* shared sub-plans (identity is lost across two
pickles).  This module defines the wire form the workers rebuild from:

* :func:`encode_plan` flattens a plan DAG into a :class:`PortablePlan` —
  a list of ``(kind, params, child indices)`` node rows in first-visit
  order, with sharing captured as indices, so :func:`decode_plan` restores
  an identity-shared DAG on the other side.
* Callable parameters must be *portable*: a structural
  :class:`~repro.columnar.specs.ColumnarSpec` (pickled by value) or a
  module-level function (pickled by reference).  Anything else —
  lambdas, closures, bound methods — raises :class:`UnportablePlanError`
  at encode time, with the offending node named, rather than a cryptic
  pickling failure inside a worker.

  Record callables that consult ``hash(str)`` are a silent cross-process
  hazard (the salt differs per process, ``PYTHONHASHSEED``); specs never
  hash, which is one more reason the analyses express their plans with
  them.
* :func:`encode_measurement` / :func:`decode_measurement` carry a
  *released* :class:`~repro.core.aggregation.NoisyCountResult` across the
  boundary: the released values, ε and the portable plan.  The worker
  rehydrates with :meth:`NoisyCountResult.from_released`, so the protected
  data is never consulted in a worker and the fixed released targets —
  what the MCMC score tracker reads — are bit-identical to the
  coordinator's.

The portable form doubles as the structural identity the ROADMAP's
cost-based optimizer needs: :meth:`PortablePlan.fingerprint` hashes the
pickled node rows, so equivalent plans built independently (even in
different processes) get equal fingerprints — used here to key worker-side
decoded-plan caches.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Any

from ..core.aggregation import NoisyCountResult
from ..core.plan import (
    ConcatPlan,
    DistinctPlan,
    DownScalePlan,
    ExceptPlan,
    GroupByPlan,
    IntersectPlan,
    JoinPlan,
    Plan,
    SelectManyPlan,
    SelectPlan,
    ShavePlan,
    SourcePlan,
    UnionPlan,
    WherePlan,
)

# The portability judgement (what may cross a process boundary, and the
# per-node parameter lists) lives in repro.lint.portability so the static
# plan checker and this runtime codec can never disagree.
# UnportablePlanError is re-exported here for compatibility.
from ..lint.portability import (
    PLAN_PARAMS,
    UnportablePlanError,
    check_portable as _check_portable,
)

__all__ = [
    "UnportablePlanError",
    "PortablePlan",
    "PortableMeasurement",
    "encode_plan",
    "decode_plan",
    "encode_measurement",
    "decode_measurement",
]


class PortablePlan:
    """A flattened, picklable plan DAG (sharing captured as node indices)."""

    __slots__ = ("nodes", "_fingerprint")

    def __init__(self, nodes: tuple[tuple, ...]) -> None:
        #: ``(kind, params tuple, child index tuple)`` rows; children always
        #: precede their parents, the root is the last row.
        self.nodes = nodes
        self._fingerprint: str | None = None

    def __getstate__(self):
        return self.nodes

    def __setstate__(self, state):
        self.nodes = state
        self._fingerprint = None

    def fingerprint(self) -> str:
        """Structural digest: equal for structurally equal plans.

        Specs pickle deterministically (value objects with fixed slots), so
        two plans built from the same specs — by different sessions or
        processes — hash equal.  Plans containing by-reference callables
        hash by the function's module path, which is as structural as a
        black-box function can get.
        """
        if self._fingerprint is None:
            self._fingerprint = hashlib.sha256(
                pickle.dumps(self.nodes, protocol=4)
            ).hexdigest()
        return self._fingerprint

    def __repr__(self) -> str:
        return f"PortablePlan(nodes={len(self.nodes)}, root={self.nodes[-1][0]})"


#: kind -> plan type; parameter attribute names come from the shared
#: PLAN_PARAMS table, the same one the static checker validates against.
_NODE_KINDS: dict[str, type] = {
    "source": SourcePlan,
    "select": SelectPlan,
    "where": WherePlan,
    "select_many": SelectManyPlan,
    "group_by": GroupByPlan,
    "shave": ShavePlan,
    "distinct": DistinctPlan,
    "down_scale": DownScalePlan,
    "join": JoinPlan,
    "union": UnionPlan,
    "intersect": IntersectPlan,
    "concat": ConcatPlan,
    "except": ExceptPlan,
}
_KIND_BY_TYPE = {plan_type: kind for kind, plan_type in _NODE_KINDS.items()}


def encode_plan(plan: Plan) -> PortablePlan:
    """Flatten a plan DAG into its portable form, validating every parameter."""
    rows: list[tuple] = []
    index_of: dict[int, int] = {}

    def visit(node: Plan) -> int:
        key = id(node)
        if key in index_of:
            return index_of[key]
        kind = _KIND_BY_TYPE.get(type(node))
        if kind is None:
            raise UnportablePlanError(
                f"plan node {type(node).__name__} has no portable encoding"
            )
        children = tuple(visit(child) for child in node.children)
        attributes = PLAN_PARAMS[type(node)]
        params = tuple(
            _check_portable(getattr(node, attribute), node._label(), attribute)
            for attribute in attributes
        )
        rows.append((kind, params, children))
        index_of[key] = len(rows) - 1
        return index_of[key]

    visit(plan)
    return PortablePlan(tuple(rows))


def decode_plan(portable: PortablePlan) -> Plan:
    """Rebuild an identity-shared plan DAG from its portable form."""
    built: list[Plan] = []
    for kind, params, children in portable.nodes:
        plan_type = _NODE_KINDS[kind]
        built.append(plan_type(*(built[child] for child in children), *params))
    return built[-1]


class PortableMeasurement:
    """A released measurement in wire form: values + ε + portable plan."""

    __slots__ = ("values", "epsilon", "query_name", "plan")

    def __init__(
        self,
        values: list[tuple[Any, float]],
        epsilon: float,
        query_name: str,
        plan: PortablePlan | None,
    ) -> None:
        self.values = values
        self.epsilon = epsilon
        self.query_name = query_name
        self.plan = plan

    def __getstate__(self):
        return (self.values, self.epsilon, self.query_name, self.plan)

    def __setstate__(self, state):
        self.values, self.epsilon, self.query_name, self.plan = state


def encode_measurement(measurement: NoisyCountResult) -> PortableMeasurement:
    """Encode a released measurement for a worker.

    Only the values released *so far* travel — which is exactly what the
    MCMC score tracker reads (its targets are fixed at construction).
    A worker-side rehydrated result drawing fresh noise for never-released
    records would diverge from the coordinator, so the tracker's fixed-target
    contract is what makes process chains bit-identical to thread chains.
    """
    plan = measurement.plan
    return PortableMeasurement(
        list(measurement.items()),
        measurement.epsilon,
        measurement.query_name,
        encode_plan(plan) if plan is not None else None,
    )


def decode_measurement(
    portable: PortableMeasurement,
    plan_cache: dict[str, Plan] | None = None,
) -> NoisyCountResult:
    """Rehydrate a measurement without touching protected data.

    ``plan_cache`` (fingerprint → decoded plan) lets a persistent worker
    reuse one plan object across requests, preserving identity-keyed
    sharing between measurements that reference the same sub-plans — two
    measurements in one payload share decoded nodes only if their roots
    are distinct, so cross-measurement sharing is restored per-payload by
    the caller, not here.
    """
    plan = None
    if portable.plan is not None:
        if plan_cache is not None:
            fingerprint = portable.plan.fingerprint()
            plan = plan_cache.get(fingerprint)
            if plan is None:
                plan = decode_plan(portable.plan)
                plan_cache[fingerprint] = plan
        else:
            plan = decode_plan(portable.plan)
    return NoisyCountResult.from_released(
        portable.values,
        portable.epsilon,
        plan=plan,
        query_name=portable.query_name,
    )
