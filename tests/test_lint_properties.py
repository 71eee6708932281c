"""Property test: the static stability bound dominates observed stability.

For random plan DAGs built from the platform's transformations and random
pairs of input datasets ``A, A'``, the checker's per-source bound must
satisfy Definition 2 end to end::

    ‖Q(A) − Q(A')‖  ≤  bound(Q) · ‖A − A'‖

If any transformation were less stable than the constant the checker
assumes (or a plan combinator composed bounds incorrectly), hypothesis
finds a counterexample here — this is the guarantee that makes the
ε-verification of ``repro explain --verify`` sound.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.columnar.specs import Field, FieldsDiffer, JoinFields, Permute
from repro.core.dataset import WeightedDataset
from repro.core.executor import EagerExecutor
from repro.core.plan import (
    ConcatPlan,
    DistinctPlan,
    DownScalePlan,
    ExceptPlan,
    GroupByPlan,
    IntersectPlan,
    JoinPlan,
    SelectManyPlan,
    SelectPlan,
    ShavePlan,
    SourcePlan,
    UnionPlan,
    WherePlan,
)
from repro.lint import stability_bounds


def _record_and_reverse(record):
    """SelectMany mapper: the record plus its reversal.

    Returned as an explicit mapping — int-pair records would otherwise be
    ambiguous with ``(record, weight)`` pairs (see
    ``normalize_weighted_output``).
    """
    output = {record: 1.0}
    output[tuple(reversed(record))] = 1.0
    return output


def _first_component(records):
    """GroupBy reducer: a deterministic, order-insensitive digest.

    Keyed by ``repr`` because a group can mix flat pairs with pairs that
    nest an earlier group's digest, which ``<`` cannot order.
    """
    return min(records, key=repr)


# Each op takes (current plan, source plan) and returns the next plan; all
# of them keep records as 2-tuples so any sequence composes.
_OPS = {
    "select": lambda plan, source: SelectPlan(plan, Permute(1, 0)),
    "where": lambda plan, source: WherePlan(plan, FieldsDiffer(0, 1)),
    "select_many": lambda plan, source: SelectManyPlan(plan, _record_and_reverse),
    "group_by": lambda plan, source: GroupByPlan(plan, Field(0), _first_component),
    "shave": lambda plan, source: ShavePlan(plan, 1.0),
    "distinct": lambda plan, source: DistinctPlan(plan, 1.0),
    "down_scale": lambda plan, source: DownScalePlan(plan, 0.5),
    "self_join": lambda plan, source: JoinPlan(
        plan,
        plan,
        Field(0),
        Field(0),
        JoinFields(("l", 1), ("r", 1)),
    ),
    "join_source": lambda plan, source: JoinPlan(
        plan,
        source,
        Field(0),
        Field(0),
        JoinFields(("l", 1), ("r", 1)),
    ),
    "union_source": lambda plan, source: UnionPlan(plan, source),
    "intersect_source": lambda plan, source: IntersectPlan(plan, source),
    "concat_source": lambda plan, source: ConcatPlan(plan, source),
    "except_source": lambda plan, source: ExceptPlan(plan, source),
}


def build_plan(op_names):
    source = SourcePlan("edges")
    plan = source
    for name in op_names:
        plan = _OPS[name](plan, source)
    return plan


_RECORDS = st.tuples(st.integers(0, 5), st.integers(0, 5))
_WEIGHTS = st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False)
_DATASETS = st.dictionaries(_RECORDS, _WEIGHTS, max_size=8)


@settings(max_examples=60, deadline=None)
@given(
    op_names=st.lists(st.sampled_from(sorted(_OPS)), max_size=5),
    base=_DATASETS,
    perturbed=_DATASETS,
)
def test_static_bound_dominates_observed_stability(op_names, base, perturbed):
    plan = build_plan(op_names)
    bound = stability_bounds(plan)["edges"]

    dataset_a = WeightedDataset(base)
    dataset_b = WeightedDataset(perturbed)
    input_distance = dataset_a.distance(dataset_b)

    output_a = EagerExecutor({"edges": dataset_a}).evaluate(plan)
    output_b = EagerExecutor({"edges": dataset_b}).evaluate(plan)
    output_distance = output_a.distance(output_b)

    assert output_distance <= bound * input_distance + 1e-6, (
        f"plan {' -> '.join(op_names) or 'source'} claims bound {bound} but "
        f"moved {output_distance:g} on an input change of {input_distance:g}"
    )


@settings(max_examples=30, deadline=None)
@given(base=_DATASETS, perturbed=_DATASETS)
def test_paper_queries_respect_their_bounds(base, perturbed):
    # The real analyses (nested records, rotations, degree joins) get the
    # same treatment as the random plans above.
    from repro.analyses import triangles_by_intersect_query, wedges_query
    from repro.core import PrivacySession

    session = PrivacySession()
    edges = session.protect("edges", [])
    for builder in (wedges_query, triangles_by_intersect_query):
        plan = builder(edges).plan
        bound = stability_bounds(plan)["edges"]
        dataset_a = WeightedDataset(base)
        dataset_b = WeightedDataset(perturbed)
        output_a = EagerExecutor({"edges": dataset_a}).evaluate(plan)
        output_b = EagerExecutor({"edges": dataset_b}).evaluate(plan)
        assert (
            output_a.distance(output_b)
            <= bound * dataset_a.distance(dataset_b) + 1e-6
        )
