"""Tests for the plan executor."""

import numpy as np
import pytest

from repro.core import (
    Attribute,
    ConjunctiveQuery,
    RangePredicate,
    Schema,
    SequentialNode,
    SequentialStep,
    VerdictLeaf,
)
from repro.exceptions import PlanError
from repro.execution import PlanExecutor, SensorBoardSource, TupleSource
from repro.planning import GreedyConditionalPlanner, OptimalSequentialPlanner
from repro.probability import EmpiricalDistribution
from tests.conftest import correlated_dataset
from tests.traversal_reference import traversal_cost


@pytest.fixture
def schema() -> Schema:
    return Schema(
        [Attribute("x", 3, 1.0), Attribute("y", 3, 10.0), Attribute("z", 3, 100.0)]
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


class TestExecute:
    def test_verdict_and_cost(self, schema):
        executor = PlanExecutor(schema)
        plan = seq(("y", 1, 2, 3), ("z", 2, 1, 2))
        result = executor.execute(plan, [1, 2, 1])
        assert result.verdict is True
        assert result.cost == 110.0
        assert result.acquired == frozenset({1, 2})

    def test_fail_fast_cost(self, schema):
        executor = PlanExecutor(schema)
        plan = seq(("y", 1, 2, 3), ("z", 2, 1, 2))
        result = executor.execute(plan, [1, 1, 1])
        assert result.verdict is False
        assert result.cost == 10.0
        assert result.reads == 1

    def test_matches_traversal_cost(self, schema):
        executor = PlanExecutor(schema)
        plan = seq(("x", 0, 1, 1), ("z", 2, 3, 3))
        for row in ([1, 1, 3], [2, 1, 3], [1, 2, 2]):
            assert executor.execute(plan, row).cost == traversal_cost(
                plan, row, schema
            )

    def test_board_source_costing(self, schema):
        executor = PlanExecutor(schema)
        plan = seq(("y", 1, 1, 3), ("z", 2, 1, 3))
        source = SensorBoardSource(
            schema,
            [1, 2, 3],
            boards={1: "board", 2: "board"},
            power_up_cost=40.0,
            per_read_cost=5.0,
        )
        result = executor.execute_source(plan, source)
        assert result.verdict is True
        assert result.cost == 50.0  # 40 power-up + 2 reads at 5

    def test_source_schema_mismatch_rejected(self, schema):
        other = Schema([Attribute("x", 3, 1.0)])
        executor = PlanExecutor(schema)
        source = TupleSource(other, [1])
        with pytest.raises(PlanError, match="schema"):
            executor.execute_source(VerdictLeaf(True), source)


class TestRunAndVerify:
    def test_run_matches_per_tuple_execution(self, schema):
        rng = np.random.default_rng(0)
        data = rng.integers(1, 4, size=(50, 3)).astype(np.int64)
        executor = PlanExecutor(schema)
        plan = seq(("x", 0, 1, 2), ("y", 1, 2, 3))
        outcome = executor.run(plan, data)
        for i, row in enumerate(data):
            single = executor.execute(plan, row)
            assert outcome.costs[i] == single.cost
            assert outcome.verdicts[i] == single.verdict

    def test_verify_accepts_correct_plan(self):
        schema, data = correlated_dataset(n_rows=1500, seed=4)
        distribution = EmpiricalDistribution(schema, data)
        query = ConjunctiveQuery(
            schema, [RangePredicate("a", 1, 2), RangePredicate("b", 3, 5)]
        )
        plan = GreedyConditionalPlanner(
            distribution, OptimalSequentialPlanner(distribution), max_splits=4
        ).plan(query).plan
        report = PlanExecutor(schema).verify(plan, query, data)
        assert report.correct
        assert report.rows == len(data)

    def test_verify_flags_broken_plan(self, schema):
        data = np.array([[1, 1, 1], [2, 2, 2]], dtype=np.int64)
        query = ConjunctiveQuery(schema, [RangePredicate("x", 1, 1)])
        wrong = VerdictLeaf(True)  # claims every row matches
        report = PlanExecutor(schema).verify(wrong, query, data)
        assert not report.correct
        assert report.mismatches == (1,)
