"""Tests for the cost models: Equations 1, 3, 4, and the Section 2.4
combined objective.

The central consistency invariant: for *any* plan, the Equation 3 expected
cost computed against an unsmoothed EmpiricalDistribution over dataset D
must equal the Equation 4 empirical mean traversal cost over the same D —
the model *is* the data.
"""

import numpy as np
import pytest

from repro.core import (
    Attribute,
    ConditionNode,
    ConjunctiveQuery,
    RangePredicate,
    Schema,
    SequentialNode,
    SequentialStep,
    VerdictLeaf,
    combined_objective,
    dataset_execution,
    empirical_cost,
    expected_cost,
)
from repro.core.cost import predicate_mask
from repro.exceptions import PlanError
from repro.planning import GreedyConditionalPlanner, GreedySequentialPlanner
from repro.probability import EmpiricalDistribution
from tests.conftest import correlated_dataset
from tests.traversal_reference import traversal_cost


def seq(*specs) -> SequentialNode:
    steps = tuple(
        SequentialStep(
            predicate=RangePredicate(name, low, high), attribute_index=index
        )
        for name, index, low, high in specs
    )
    return SequentialNode(steps=steps)


@pytest.fixture
def schema() -> Schema:
    return Schema(
        [Attribute("x", 2, 1.0), Attribute("y", 2, 10.0), Attribute("z", 2, 100.0)]
    )


class TestTraversalCost:
    def test_sequential_pays_until_failure(self, schema):
        plan = seq(("y", 1, 2, 2), ("z", 2, 2, 2))
        assert traversal_cost(plan, [1, 1, 1], schema) == 10.0  # y fails first
        assert traversal_cost(plan, [1, 2, 1], schema) == 110.0  # both read

    def test_condition_node_charges_first_read_only(self, schema):
        plan = ConditionNode(
            attribute="y",
            attribute_index=1,
            split_value=2,
            below=seq(("y", 1, 2, 2)),  # re-tests y: free
            above=VerdictLeaf(True),
        )
        assert traversal_cost(plan, [1, 1, 1], schema) == 10.0

    def test_leaf_costs_nothing(self, schema):
        assert traversal_cost(VerdictLeaf(True), [1, 1, 1], schema) == 0.0


class TestDatasetExecution:
    def test_matches_per_tuple_traversal(self, schema):
        rng = np.random.default_rng(3)
        data = rng.integers(1, 3, size=(300, 3)).astype(np.int64)
        plan = ConditionNode(
            attribute="x",
            attribute_index=0,
            split_value=2,
            below=seq(("y", 1, 2, 2), ("z", 2, 2, 2)),
            above=seq(("z", 2, 1, 1), ("y", 1, 1, 2)),
        )
        outcome = dataset_execution(plan, data, schema)
        for row_index in range(len(data)):
            assert outcome.costs[row_index] == traversal_cost(
                plan, data[row_index], schema
            )
            assert outcome.verdicts[row_index] == plan.evaluate(data[row_index])

    def test_aggregates(self, schema):
        data = np.array([[1, 2, 2], [1, 1, 1]], dtype=np.int64)
        plan = seq(("y", 1, 2, 2))
        outcome = dataset_execution(plan, data, schema)
        assert outcome.total_cost == 20.0
        assert outcome.mean_cost == 10.0
        assert outcome.pass_fraction == 0.5

    def test_shape_validation(self, schema):
        with pytest.raises(PlanError):
            dataset_execution(VerdictLeaf(True), np.ones((4, 2), dtype=np.int64), schema)

    def test_empirical_cost_helper(self, schema):
        data = np.array([[1, 1, 1]], dtype=np.int64)
        assert empirical_cost(seq(("x", 0, 1, 1)), data, schema) == 1.0


class TestExpectedCost:
    def test_matches_empirical_on_training_data(self):
        """Equation 3 over the empirical model == Equation 4 over the data."""
        schema, data = correlated_dataset(n_rows=2500, seed=11)
        distribution = EmpiricalDistribution(schema, data)
        query = ConjunctiveQuery(
            schema, [RangePredicate("a", 1, 2), RangePredicate("b", 3, 5)]
        )
        planner = GreedyConditionalPlanner(
            distribution, GreedySequentialPlanner(distribution), max_splits=4
        )
        plan = planner.plan(query).plan
        model = expected_cost(plan, distribution)
        empirical = empirical_cost(plan, data, schema)
        assert model == pytest.approx(empirical, rel=1e-9)

    def test_planner_reported_cost_matches_recomputation(self):
        schema, data = correlated_dataset(n_rows=2000, seed=12)
        distribution = EmpiricalDistribution(schema, data)
        query = ConjunctiveQuery(
            schema, [RangePredicate("a", 2, 4), RangePredicate("b", 1, 3)]
        )
        result = GreedyConditionalPlanner(
            distribution, GreedySequentialPlanner(distribution), max_splits=3
        ).plan(query)
        assert result.expected_cost == pytest.approx(
            expected_cost(result.plan, distribution), rel=1e-9
        )

    def test_condition_probabilities_weight_branches(self, schema):
        # 75% of rows have x=1; below branch reads y (10), above reads z (100).
        data = np.array(
            [[1, 1, 1]] * 75 + [[2, 1, 1]] * 25, dtype=np.int64
        )
        distribution = EmpiricalDistribution(schema, data)
        plan = ConditionNode(
            attribute="x",
            attribute_index=0,
            split_value=2,
            below=seq(("y", 1, 2, 2)),
            above=seq(("z", 2, 2, 2)),
        )
        expected = 1.0 + 0.75 * 10.0 + 0.25 * 100.0
        assert expected_cost(plan, distribution) == pytest.approx(expected)

    def test_unreachable_split_rejected(self, schema):
        data = np.array([[1, 1, 1]], dtype=np.int64)
        distribution = EmpiricalDistribution(schema, data)
        inner = ConditionNode(
            attribute="x",
            attribute_index=0,
            split_value=2,
            below=VerdictLeaf(True),
            above=VerdictLeaf(False),
        )
        outer = ConditionNode(
            attribute="x",
            attribute_index=0,
            split_value=2,
            below=inner,  # x already pinned below 2: split unreachable
            above=VerdictLeaf(False),
        )
        with pytest.raises(PlanError, match="outside"):
            expected_cost(outer, distribution)

    def test_leaf_is_free(self, schema):
        data = np.array([[1, 1, 1]], dtype=np.int64)
        distribution = EmpiricalDistribution(schema, data)
        assert expected_cost(VerdictLeaf(True), distribution) == 0.0


class TestCombinedObjective:
    def test_adds_scaled_plan_size(self, schema):
        data = np.array([[1, 1, 1], [2, 2, 2]], dtype=np.int64)
        distribution = EmpiricalDistribution(schema, data)
        plan = seq(("x", 0, 1, 1))
        base = expected_cost(plan, distribution)
        assert combined_objective(plan, distribution, alpha=0.0) == base
        assert combined_objective(plan, distribution, alpha=2.0) == pytest.approx(
            base + 2.0 * plan.size_bytes()
        )

    def test_negative_alpha_rejected(self, schema):
        data = np.array([[1, 1, 1]], dtype=np.int64)
        distribution = EmpiricalDistribution(schema, data)
        with pytest.raises(PlanError):
            combined_objective(VerdictLeaf(True), distribution, alpha=-1.0)


class TestPredicateMask:
    def test_range(self):
        values = np.array([1, 2, 3, 4, 5])
        mask = predicate_mask(RangePredicate("x", 2, 4), values)
        assert mask.tolist() == [False, True, True, True, False]

    def test_not_range(self):
        from repro.core import NotRangePredicate

        values = np.array([1, 2, 3])
        mask = predicate_mask(NotRangePredicate("x", 2, 2), values)
        assert mask.tolist() == [True, False, True]
