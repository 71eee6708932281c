"""The vectorized execution backend and the size-based auto dispatcher.

:class:`VectorizedExecutor` implements the PR-1 :class:`~repro.core.executor.
Executor` protocol over the columnar kernels: plans are walked exactly like
the eager backend (memoised by node identity, so shared sub-plans evaluate
once per batch), but every intermediate result is a
:class:`~repro.columnar.dataset.ColumnarDataset` and every operator runs its
NumPy kernel.  Results are decoded to :class:`~repro.core.dataset.
WeightedDataset` only at the measurement boundary, so a chain of joins and
filters never leaves array form.

:class:`AutoExecutor` fronts an eager and a vectorized backend and routes
each plan by the support size of the protected sources it references: tiny
inputs stay on the eager evaluator (no encode/decode overhead), large ones go
columnar.  Its decisions are inspectable through ``Queryable.explain()`` /
``repro explain``, which annotate every plan node with the backend that will
execute it.
"""

from __future__ import annotations

import os
from typing import Any, Mapping, Sequence

from ..core.dataset import WeightedDataset
from ..core.executor import EagerExecutor
from ..core.partition import PartitionPlan
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
from ..exceptions import PlanError
from . import kernels
from .dataset import ColumnarDataset

__all__ = ["VectorizedExecutor", "AutoExecutor", "DEFAULT_AUTO_THRESHOLD"]

#: Total source support (rows) above which ``"auto"`` picks the vectorized
#: backend.  Overridable per-executor and via ``REPRO_AUTO_THRESHOLD``.
DEFAULT_AUTO_THRESHOLD = 2048


class _EagerBoundary:
    """Adapter letting plan nodes without a kernel run their eager rule.

    ``recurse``/``dataset`` decode columnar children to weighted datasets, the
    node's ``_evaluate`` runs eagerly, and the caller re-encodes the result —
    a per-node escape hatch that keeps the backend total over any future plan
    type without silently changing semantics.
    """

    def __init__(self, outer: "VectorizedExecutor") -> None:
        self._outer = outer

    def recurse(self, plan: Plan) -> WeightedDataset:
        return self._outer.recurse(plan).to_weighted()

    def dataset(self, name: str) -> WeightedDataset:
        return self._outer.dataset(name).to_weighted()


class VectorizedExecutor(EagerExecutor):
    """Plan evaluation over columnar datasets and NumPy kernels.

    Subclasses :class:`~repro.core.executor.EagerExecutor` to inherit all of
    its batch machinery — the id-keyed memo table, the plan pinning that
    keeps ids unique, warm/cold scoping and ``evaluation_count`` — and
    overrides only what differs: sources encode to
    :class:`~repro.columnar.dataset.ColumnarDataset`, nodes compute through
    the vectorized kernels, and batch results decode to
    :class:`WeightedDataset` at the measurement boundary.  Environment
    values may be :class:`WeightedDataset` (encoded once and cached per
    registered object) or already-columnar :class:`ColumnarDataset` values,
    which reach the kernels without re-encoding.
    """

    def __init__(
        self,
        environment: Mapping[str, Any],
        warm: bool = False,
    ) -> None:
        super().__init__(environment, warm=warm)
        # name -> (the registered WeightedDataset, its encoding).  The dataset
        # object itself is held (and compared by identity) rather than its
        # id(): a strong reference keeps the address from being reused by a
        # later dataset, which would otherwise serve a stale encoding.
        self._encoded: dict[str, tuple[WeightedDataset, ColumnarDataset]] = {}

    # ------------------------------------------------------------------
    def backend_for(self, plan: Plan) -> str:
        """Every plan handed to this executor runs vectorized."""
        return "vectorized"

    def dataset(self, name: str) -> ColumnarDataset:
        """Resolve a source to columnar form (encoding memoised per object)."""
        try:
            dataset = self._environment[name]
        except KeyError as exc:
            raise PlanError(f"no dataset bound for source {name!r}") from exc
        if isinstance(dataset, ColumnarDataset):
            return dataset
        if not isinstance(dataset, WeightedDataset):
            raise PlanError(
                f"source {name!r} must be bound to a WeightedDataset or "
                f"ColumnarDataset, got {type(dataset).__name__}"
            )
        cached = self._encoded.get(name)
        if cached is None or cached[0] is not dataset:
            cached = (dataset, ColumnarDataset.from_weighted(dataset))
            self._encoded[name] = cached
        return cached[1]

    # ------------------------------------------------------------------
    def _compute(self, plan: Plan) -> ColumnarDataset:
        """Produce one node's value in columnar form (the memo-hook override)."""
        if isinstance(plan, SourcePlan):
            return self.dataset(plan.name)
        if isinstance(plan, SelectPlan):
            return kernels.select(self.recurse(plan.child), plan.mapper)
        if isinstance(plan, PartitionPlan):
            # Before WherePlan: a partition part is a Where with a dedicated
            # node type, and its predicate closes over the partition key.
            return kernels.where(self.recurse(plan.child), plan.part_predicate)
        if isinstance(plan, WherePlan):
            return kernels.where(self.recurse(plan.child), plan.predicate)
        if isinstance(plan, SelectManyPlan):
            return kernels.select_many(self.recurse(plan.child), plan.mapper)
        if isinstance(plan, GroupByPlan):
            return kernels.group_by(self.recurse(plan.child), plan.key, plan.reducer)
        if isinstance(plan, ShavePlan):
            return kernels.shave(self.recurse(plan.child), plan.slice_weights)
        if isinstance(plan, DistinctPlan):
            return kernels.distinct(self.recurse(plan.child), plan.cap)
        if isinstance(plan, DownScalePlan):
            return kernels.down_scale(self.recurse(plan.child), plan.factor)
        if isinstance(plan, JoinPlan):
            return kernels.join(
                self.recurse(plan.left),
                self.recurse(plan.right),
                plan.left_key,
                plan.right_key,
                plan.result_selector,
            )
        if isinstance(plan, UnionPlan):
            return kernels.union(self.recurse(plan.left), self.recurse(plan.right))
        if isinstance(plan, IntersectPlan):
            return kernels.intersect(self.recurse(plan.left), self.recurse(plan.right))
        if isinstance(plan, ConcatPlan):
            return kernels.concat(self.recurse(plan.left), self.recurse(plan.right))
        if isinstance(plan, ExceptPlan):
            return kernels.except_(self.recurse(plan.left), self.recurse(plan.right))
        return ColumnarDataset.from_weighted(plan._evaluate(_EagerBoundary(self)))

    # ------------------------------------------------------------------
    def evaluate_many(self, plans: Sequence[Plan]) -> list[WeightedDataset]:
        """Evaluate a batch; shared sub-plans are evaluated once, columnar."""
        return [dataset.to_weighted() for dataset in self.evaluate_columnar(plans)]

    def evaluate_columnar(self, plans: Sequence[Plan]) -> list[ColumnarDataset]:
        """Like :meth:`evaluate_many` but without the boundary decode.

        This is the inherited batch evaluation — memo scoping included —
        whose values are columnar because :meth:`_compute` is.
        """
        return super().evaluate_many(plans)

    def reset(self) -> None:
        """Drop memoised results and cached source encodings."""
        super().reset()
        self._encoded = {}


class AutoExecutor:
    """Route plans to eager or vectorized execution by input size.

    The decision compares the summed supports of the referenced protected
    sources against ``threshold`` rows.  Small inputs run eagerly (dict
    pipelines beat array encode/decode on a handful of records); everything
    else runs on the columnar kernels.  A multi-plan batch is routed as **one
    unit** — vectorized if any of its plans would route vectorized — so the
    once-per-batch evaluation of shared sub-plans is preserved; per-plan
    :meth:`backend_for` reports the routing of the plan measured on its own,
    which is also what ``Queryable.explain`` annotates.  Both delegates share
    this executor's environment, so either answer is evaluated against the
    same protected data.
    """

    def __init__(
        self,
        environment: Mapping[str, WeightedDataset],
        threshold: int | None = None,
    ) -> None:
        if threshold is None:
            threshold = int(
                os.environ.get("REPRO_AUTO_THRESHOLD", DEFAULT_AUTO_THRESHOLD)
            )
        if threshold < 0:
            raise PlanError("auto threshold must be non-negative")
        self.threshold = threshold
        self._environment = environment
        self._eager = EagerExecutor(environment)
        self._vectorized = VectorizedExecutor(environment)

    # ------------------------------------------------------------------
    def backend_for(self, plan: Plan) -> str:
        """The backend this executor would run ``plan`` on right now."""
        total = 0
        for name in plan.source_names():
            dataset = self._environment.get(name)
            if dataset is not None:
                total += len(dataset)
        return "vectorized" if total >= self.threshold else "eager"

    # ------------------------------------------------------------------
    def evaluate(self, plan: Plan) -> WeightedDataset:
        """Evaluate a single plan (a one-element batch)."""
        return self.evaluate_many([plan])[0]

    def evaluate_many(self, plans: Sequence[Plan]) -> list[WeightedDataset]:
        """Evaluate the batch on one delegate (vectorized if any plan is big).

        Routing the whole batch together keeps the shared-sub-plan guarantee:
        a sub-plan referenced by several requests is evaluated once no matter
        how their individual sizes would have routed them.
        """
        if any(self.backend_for(plan) == "vectorized" for plan in plans):
            return self._vectorized.evaluate_many(plans)
        return self._eager.evaluate_many(plans)

    def reset(self) -> None:
        """Reset both delegates."""
        self._eager.reset()
        self._vectorized.reset()
