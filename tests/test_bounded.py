"""Tests for the size-aware planner (Section 2.4 joint objective)."""

import numpy as np
import pytest

from repro.core import (
    ConjunctiveQuery,
    RangePredicate,
    combined_objective,
)
from repro.exceptions import PlanningError
from repro.planning import (
    GreedyConditionalPlanner,
    OptimalSequentialPlanner,
    SizeAwareConditionalPlanner,
)
from repro.probability import EmpiricalDistribution
from tests.conftest import correlated_dataset


@pytest.fixture
def setup():
    schema, data = correlated_dataset(n_rows=4000, seed=5)
    distribution = EmpiricalDistribution(schema, data)
    query = ConjunctiveQuery(
        schema, [RangePredicate("a", 1, 2), RangePredicate("b", 3, 5)]
    )
    return schema, data, distribution, query


class TestStoppingRule:
    def test_zero_alpha_matches_unbounded_greedy(self, setup):
        _schema, _data, distribution, query = setup
        base = OptimalSequentialPlanner(distribution)
        unbounded = GreedyConditionalPlanner(
            distribution, base, max_splits=64
        ).plan(query)
        size_aware = SizeAwareConditionalPlanner(
            distribution, base, alpha=0.0
        ).plan(query)
        assert size_aware.plan == unbounded.plan

    def test_huge_alpha_stays_sequential(self, setup):
        _schema, _data, distribution, query = setup
        base = OptimalSequentialPlanner(distribution)
        result = SizeAwareConditionalPlanner(
            distribution, base, alpha=1e9
        ).plan(query)
        assert result.plan.condition_count() == 0

    def test_plan_size_monotone_in_alpha(self, setup):
        _schema, _data, distribution, query = setup
        base = OptimalSequentialPlanner(distribution)
        sizes = []
        for alpha in (0.0, 0.05, 1.0, 100.0):
            result = SizeAwareConditionalPlanner(
                distribution, base, alpha=alpha
            ).plan(query)
            sizes.append(result.plan.size_bytes())
        for bigger, smaller in zip(sizes, sizes[1:]):
            assert smaller <= bigger

    def test_reported_cost_is_combined_objective(self, setup):
        _schema, _data, distribution, query = setup
        base = OptimalSequentialPlanner(distribution)
        alpha = 0.02
        result = SizeAwareConditionalPlanner(
            distribution, base, alpha=alpha
        ).plan(query)
        assert result.expected_cost == pytest.approx(
            combined_objective(result.plan, distribution, alpha), rel=1e-6
        )

    def test_objective_no_worse_than_extremes(self, setup):
        """The size-aware plan's combined objective must not lose to either
        the unsplit plan or the unbounded greedy plan at the same alpha."""
        _schema, _data, distribution, query = setup
        base = OptimalSequentialPlanner(distribution)
        alpha = 0.05
        size_aware = SizeAwareConditionalPlanner(
            distribution, base, alpha=alpha
        ).plan(query)
        sequential = GreedyConditionalPlanner(
            distribution, base, max_splits=0
        ).plan(query)
        unbounded = GreedyConditionalPlanner(
            distribution, base, max_splits=64
        ).plan(query)
        own = combined_objective(size_aware.plan, distribution, alpha)
        assert own <= combined_objective(sequential.plan, distribution, alpha) + 1e-6
        assert own <= combined_objective(unbounded.plan, distribution, alpha) + 1e-6


class TestLifetimeAlpha:
    """Section 2.4's alpha is the radio cost per byte over the lifetime."""

    def test_alpha_derivation(self, setup):
        _schema, _data, distribution, query = setup
        base = OptimalSequentialPlanner(distribution)
        radio_cost_per_byte = 10.0

        def plan_for(lifetime_tuples: int):
            alpha = radio_cost_per_byte / lifetime_tuples
            return SizeAwareConditionalPlanner(distribution, base, alpha=alpha).plan(
                query
            )

        short = plan_for(1)
        long_lived = plan_for(10_000_000)
        assert short.plan.size_bytes() <= long_lived.plan.size_bytes()

    def test_validation(self, setup):
        _schema, _data, distribution, query = setup
        base = OptimalSequentialPlanner(distribution)
        with pytest.raises(PlanningError):
            SizeAwareConditionalPlanner(distribution, base, alpha=-0.1)


class TestCorrectness:
    def test_plans_answer_correctly(self, setup):
        schema, data, distribution, query = setup
        base = OptimalSequentialPlanner(distribution)
        for alpha in (0.0, 0.1, 10.0):
            result = SizeAwareConditionalPlanner(
                distribution, base, alpha=alpha
            ).plan(query)
            truth = np.fromiter(
                (query.evaluate(row) for row in data), dtype=bool, count=len(data)
            )
            from repro.core import dataset_execution

            outcome = dataset_execution(result.plan, data, schema)
            assert np.array_equal(outcome.verdicts, truth)
