"""Tests for conditional acquisition cost models (Section 7)."""

import numpy as np
import pytest

from repro.core import (
    Attribute,
    ConjunctiveQuery,
    RangePredicate,
    RangeVector,
    Schema,
    SequentialNode,
    SequentialStep,
    dataset_execution,
    empirical_cost,
    expected_cost,
)
from repro.core.cost_models import BoardAwareCostModel, SchemaCostModel
from repro.exceptions import SchemaError
from repro.planning import (
    GreedyConditionalPlanner,
    GreedySequentialPlanner,
    NaivePlanner,
    OptimalSequentialPlanner,
)
from repro.probability import EmpiricalDistribution
from tests.traversal_reference import traversal_cost


@pytest.fixture
def schema() -> Schema:
    return Schema(
        [
            Attribute("id", 4, 1.0),
            Attribute("light", 4, 100.0),  # weather board
            Attribute("temp", 4, 100.0),  # weather board
            Attribute("sound", 4, 100.0),  # acoustic board
        ]
    )


@pytest.fixture
def board_model(schema) -> BoardAwareCostModel:
    return BoardAwareCostModel(
        schema,
        boards={1: "weather", 2: "weather", 3: "acoustic"},
        power_up_cost=90.0,
        per_read_cost=10.0,
    )


def seq(*specs):
    return SequentialNode(
        steps=tuple(
            SequentialStep(
                predicate=RangePredicate(name, low, high), attribute_index=index
            )
            for name, index, low, high in specs
        )
    )


class TestModels:
    def test_schema_model_matches_flat_costs(self, schema):
        model = SchemaCostModel(schema)
        assert model.cost(1, frozenset()) == 100.0
        assert model.cost(1, frozenset({2, 3})) == 100.0  # no conditioning

    def test_board_first_read_pays_power_up(self, schema, board_model):
        assert board_model.cost(1, frozenset()) == 100.0  # 90 + 10

    def test_board_mate_read_is_cheap(self, schema, board_model):
        assert board_model.cost(2, frozenset({1})) == 10.0

    def test_other_board_still_pays(self, schema, board_model):
        assert board_model.cost(3, frozenset({1, 2})) == 100.0

    def test_unboarded_attribute_uses_schema_cost(self, schema, board_model):
        assert board_model.cost(0, frozenset()) == 1.0

    def test_validation(self, schema):
        with pytest.raises(SchemaError):
            BoardAwareCostModel(schema, {1: "b"}, power_up_cost=-1.0)
        with pytest.raises(SchemaError):
            BoardAwareCostModel(schema, {9: "b"}, power_up_cost=1.0)


class TestCostingUnderModels:
    def test_traversal_cost_order_sensitivity(self, schema, board_model):
        """Reading two weather sensors back to back shares the power-up."""
        both_weather = seq(("light", 1, 1, 4), ("temp", 2, 1, 4))
        split_boards = seq(("light", 1, 1, 4), ("sound", 3, 1, 4))
        row = [1, 2, 2, 2]
        assert traversal_cost(both_weather, row, schema, board_model) == 110.0
        assert traversal_cost(split_boards, row, schema, board_model) == 200.0

    def test_dataset_execution_matches_traversal(self, schema, board_model):
        rng = np.random.default_rng(0)
        data = rng.integers(1, 5, size=(200, 4)).astype(np.int64)
        plan = seq(("light", 1, 2, 4), ("temp", 2, 1, 3), ("sound", 3, 1, 2))
        outcome = dataset_execution(plan, data, schema, board_model)
        for row_index in range(len(data)):
            assert outcome.costs[row_index] == traversal_cost(
                plan, data[row_index], schema, board_model
            )

    def test_expected_cost_matches_empirical(self, schema, board_model):
        rng = np.random.default_rng(1)
        data = rng.integers(1, 5, size=(1500, 4)).astype(np.int64)
        distribution = EmpiricalDistribution(schema, data)
        plan = seq(("light", 1, 2, 4), ("temp", 2, 1, 3))
        model_cost = expected_cost(plan, distribution, cost_model=board_model)
        measured = empirical_cost(plan, data, schema, board_model)
        assert model_cost == pytest.approx(measured, rel=1e-9)

    def test_board_source_agrees_with_cost_model(self, schema, board_model):
        """The runtime SensorBoardSource and the planning-time
        BoardAwareCostModel must meter identically."""
        from repro.execution import PlanExecutor, SensorBoardSource

        plan = seq(("light", 1, 1, 4), ("temp", 2, 1, 4), ("sound", 3, 1, 4))
        row = [1, 2, 2, 2]
        source = SensorBoardSource(
            schema,
            row,
            boards={1: "weather", 2: "weather", 3: "acoustic"},
            power_up_cost=90.0,
            per_read_cost=10.0,
        )
        runtime = PlanExecutor(schema).execute_source(plan, source)
        assert runtime.cost == traversal_cost(plan, row, schema, board_model)


class TestPlanningUnderModels:
    def make_data(self, n: int = 5000, seed: int = 2) -> np.ndarray:
        rng = np.random.default_rng(seed)
        ident = rng.integers(1, 5, n)
        light = rng.integers(1, 5, n)
        temp = rng.integers(1, 5, n)
        sound = rng.integers(1, 5, n)
        return np.stack([ident, light, temp, sound], axis=1).astype(np.int64)

    def test_optseq_groups_board_mates(self, schema, board_model):
        """With near-equal selectivities, the optimal order under board
        costs evaluates the two weather sensors consecutively."""
        data = self.make_data()
        distribution = EmpiricalDistribution(schema, data)
        query = ConjunctiveQuery(
            schema,
            [
                RangePredicate("light", 1, 2),
                RangePredicate("sound", 1, 2),
                RangePredicate("temp", 1, 2),
            ],
        )
        result = OptimalSequentialPlanner(
            distribution, cost_model=board_model
        ).plan(query)
        order = [step.predicate.attribute for step in result.plan.steps]
        light_pos = order.index("light")
        temp_pos = order.index("temp")
        assert abs(light_pos - temp_pos) == 1, order

    def test_optseq_beats_or_ties_flat_cost_order(self, schema, board_model):
        """Planning *with* the true cost model cannot lose to planning with
        flat costs, when both are measured under the true model."""
        data = self.make_data(seed=3)
        distribution = EmpiricalDistribution(schema, data)
        query = ConjunctiveQuery(
            schema,
            [
                RangePredicate("light", 1, 2),
                RangePredicate("sound", 1, 2),
                RangePredicate("temp", 1, 2),
            ],
        )
        informed = OptimalSequentialPlanner(
            distribution, cost_model=board_model
        ).plan(query)
        flat = OptimalSequentialPlanner(distribution).plan(query)
        informed_cost = empirical_cost(informed.plan, data, schema, board_model)
        flat_cost = empirical_cost(flat.plan, data, schema, board_model)
        assert informed_cost <= flat_cost + 1e-9

    def test_greedy_seq_supports_models(self, schema, board_model):
        data = self.make_data(seed=4)
        distribution = EmpiricalDistribution(schema, data)
        query = ConjunctiveQuery(
            schema,
            [RangePredicate("light", 1, 2), RangePredicate("temp", 1, 2)],
        )
        result = GreedySequentialPlanner(
            distribution, cost_model=board_model
        ).plan(query)
        assert result.expected_cost == pytest.approx(
            empirical_cost(result.plan, data, schema, board_model), rel=1e-9
        )

    def test_heuristic_requires_matching_cost_models(self, schema, board_model):
        data = self.make_data(seed=5)
        distribution = EmpiricalDistribution(schema, data)
        from repro.exceptions import PlanningError

        with pytest.raises(PlanningError, match="cost model"):
            GreedyConditionalPlanner(
                distribution,
                OptimalSequentialPlanner(distribution),  # flat-cost base
                max_splits=2,
                cost_model=board_model,
            )

    def test_heuristic_with_model_is_consistent(self, schema, board_model):
        data = self.make_data(seed=6)
        distribution = EmpiricalDistribution(schema, data)
        query = ConjunctiveQuery(
            schema,
            [RangePredicate("light", 1, 2), RangePredicate("temp", 1, 2)],
        )
        base = OptimalSequentialPlanner(distribution, cost_model=board_model)
        result = GreedyConditionalPlanner(
            distribution, base, max_splits=3, cost_model=board_model
        ).plan(query)
        assert result.expected_cost == pytest.approx(
            expected_cost(result.plan, distribution, cost_model=board_model),
            rel=1e-9,
        )
        truth = np.fromiter(
            (query.evaluate(row) for row in data), dtype=bool, count=len(data)
        )
        outcome = dataset_execution(result.plan, data, schema, board_model)
        assert np.array_equal(outcome.verdicts, truth)

    def test_naive_supports_models(self, schema, board_model):
        data = self.make_data(seed=7)
        distribution = EmpiricalDistribution(schema, data)
        query = ConjunctiveQuery(
            schema,
            [RangePredicate("light", 1, 2), RangePredicate("sound", 1, 2)],
        )
        result = NaivePlanner(distribution, cost_model=board_model).plan(query)
        assert result.expected_cost > 0
