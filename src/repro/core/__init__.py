"""Core formal objects: schemas, predicates, queries, plans, cost models."""

from repro.core.analysis import (
    PlanComparison,
    PlanSummary,
    annotate_plan,
    attribute_acquisition_rates,
    compare_plans,
    plan_summary,
    plan_to_dot,
    validate_plan,
)
from repro.core.attributes import Attribute, Schema
from repro.core.boolean import And, BooleanQuery, Formula, Leaf, Or
from repro.core.cost_models import (
    AcquisitionCostModel,
    BoardAwareCostModel,
    SchemaCostModel,
)
from repro.core.cost import (
    DatasetExecution,
    combined_objective,
    dataset_execution,
    empirical_cost,
    expected_cost,
)
from repro.core.plan import (
    ConditionNode,
    PlanNode,
    SequentialNode,
    SequentialStep,
    VerdictLeaf,
    plan_from_dict,
    simplify_plan,
)
from repro.core.predicates import (
    NotRangePredicate,
    Predicate,
    RangePredicate,
    Truth,
)
from repro.core.query import ConjunctiveQuery, ExistentialQuery, LimitQuery
from repro.core.ranges import Range, RangeVector

__all__ = [
    "Attribute",
    "Schema",
    "Range",
    "RangeVector",
    "Truth",
    "Predicate",
    "RangePredicate",
    "NotRangePredicate",
    "ConjunctiveQuery",
    "BooleanQuery",
    "Formula",
    "Leaf",
    "And",
    "Or",
    "ExistentialQuery",
    "LimitQuery",
    "PlanNode",
    "VerdictLeaf",
    "SequentialStep",
    "SequentialNode",
    "ConditionNode",
    "plan_from_dict",
    "simplify_plan",
    "dataset_execution",
    "empirical_cost",
    "expected_cost",
    "combined_objective",
    "DatasetExecution",
    "AcquisitionCostModel",
    "SchemaCostModel",
    "BoardAwareCostModel",
    "PlanSummary",
    "plan_summary",
    "annotate_plan",
    "attribute_acquisition_rates",
    "plan_to_dot",
    "PlanComparison",
    "compare_plans",
    "validate_plan",
]
