"""Tests for plan analysis and reporting."""

import pytest

from repro.core import (
    ConditionNode,
    ConjunctiveQuery,
    RangePredicate,
    SequentialNode,
    SequentialStep,
    VerdictLeaf,
    annotate_plan,
    attribute_acquisition_rates,
    compare_plans,
    empirical_cost,
    plan_summary,
    plan_to_dot,
)
from repro.planning import GreedyConditionalPlanner, NaivePlanner, OptimalSequentialPlanner
from repro.probability import EmpiricalDistribution
from tests.conftest import correlated_dataset


@pytest.fixture
def setup():
    schema, data = correlated_dataset(n_rows=3000, seed=2)
    distribution = EmpiricalDistribution(schema, data)
    query = ConjunctiveQuery(
        schema, [RangePredicate("a", 1, 2), RangePredicate("b", 3, 5)]
    )
    plan = GreedyConditionalPlanner(
        distribution, OptimalSequentialPlanner(distribution), max_splits=4
    ).plan(query).plan
    return schema, data, distribution, query, plan


class TestPlanSummary:
    def test_counts(self, setup):
        _schema, _data, _dist, _query, plan = setup
        summary = plan_summary(plan)
        assert summary.nodes == plan.size_nodes()
        assert summary.condition_nodes == plan.condition_count()
        assert summary.size_bytes == plan.size_bytes()
        assert summary.depth == plan.depth()
        assert (
            summary.condition_nodes
            + summary.sequential_leaves
            + summary.verdict_leaves
            == summary.nodes
        )

    def test_conditioning_attributes_in_order(self, setup):
        _schema, _data, _dist, _query, plan = setup
        summary = plan_summary(plan)
        assert "mode" in summary.conditioning_attributes

    def test_describe_is_readable(self, setup):
        _schema, _data, _dist, _query, plan = setup
        text = plan_summary(plan).describe()
        assert "splits" in text and "bytes" in text

    def test_leaf_only_plan(self):
        summary = plan_summary(VerdictLeaf(True))
        assert summary.nodes == 1
        assert summary.condition_nodes == 0
        assert summary.verdict_leaves == 1
        assert summary.distinct_leaf_orders == 0


class TestAnnotatePlan:
    def test_probabilities_present_and_valid(self, setup):
        _schema, _data, distribution, _query, plan = setup
        text = annotate_plan(plan, distribution)
        assert "reach=1.000" in text
        assert "p=" in text

    def test_reach_probabilities_decrease_with_depth(self, setup):
        _schema, _data, distribution, _query, plan = setup
        import re

        text = annotate_plan(plan, distribution)
        reaches = [float(m) for m in re.findall(r"reach=([0-9.]+)", text)]
        assert max(reaches) <= 1.0 + 1e-9
        assert min(reaches) >= 0.0


class TestAcquisitionRates:
    def test_rates_recover_empirical_cost(self, setup):
        """Sum of rate * cost over attributes == Equation 4's mean cost."""
        schema, data, _dist, _query, plan = setup
        rates = attribute_acquisition_rates(plan, data, schema)
        recovered = sum(
            rates[attribute.name] * attribute.cost for attribute in schema
        )
        assert recovered == pytest.approx(empirical_cost(plan, data, schema))

    def test_rates_bounded(self, setup):
        schema, data, _dist, _query, plan = setup
        rates = attribute_acquisition_rates(plan, data, schema)
        for value in rates.values():
            assert 0.0 <= value <= 1.0

    def test_unused_attribute_rate_zero(self, setup):
        schema, data, _dist, _query, plan = setup
        rates = attribute_acquisition_rates(plan, data, schema)
        assert rates["c"] == 0.0  # never referenced by query or plan


class TestDotExport:
    def test_valid_dot_structure(self, setup):
        _schema, _data, _dist, _query, plan = setup
        dot = plan_to_dot(plan, name="study")
        assert dot.startswith("digraph study {")
        assert dot.rstrip().endswith("}")
        assert dot.count("->") == 2 * plan.condition_count()

    def test_leaf_shapes(self):
        dot = plan_to_dot(VerdictLeaf(False))
        assert 'label="F"' in dot


class TestComparePlans:
    def test_same_query_plans_agree_fully(self, setup):
        schema, data, distribution, query, plan = setup
        naive = NaivePlanner(distribution).plan(query).plan
        comparison = compare_plans(plan, naive, data, schema)
        assert comparison.verdict_agreement == 1.0
        assert comparison.cost_ratio == pytest.approx(
            comparison.mean_cost_a / comparison.mean_cost_b
        )

    def test_different_query_plans_disagree(self, setup):
        schema, data, _dist, _query, plan = setup
        always_true = VerdictLeaf(True)
        comparison = compare_plans(plan, always_true, data, schema)
        assert comparison.verdict_agreement < 1.0

    def test_describe(self, setup):
        schema, data, distribution, query, plan = setup
        naive = NaivePlanner(distribution).plan(query).plan
        text = compare_plans(plan, naive, data, schema).describe()
        assert "agreement" in text


class TestValidatePlan:
    def make(self):
        from tests.conftest import correlated_dataset

        schema, data = correlated_dataset(n_rows=1000, seed=6)
        distribution = EmpiricalDistribution(schema, data)
        query = ConjunctiveQuery(
            schema, [RangePredicate("a", 1, 2), RangePredicate("b", 3, 5)]
        )
        plan = GreedyConditionalPlanner(
            distribution, OptimalSequentialPlanner(distribution), max_splits=3
        ).plan(query).plan
        return schema, query, plan

    def test_planner_output_is_valid(self):
        from repro.core import validate_plan

        schema, query, plan = self.make()
        assert validate_plan(plan, schema) == []
        assert validate_plan(plan, schema, query) == []

    def test_bad_attribute_index_flagged(self):
        from repro.core import validate_plan

        schema, _query, _plan = self.make()
        bad = ConditionNode(
            attribute="mode",
            attribute_index=99,
            split_value=2,
            below=VerdictLeaf(False),
            above=VerdictLeaf(True),
        )
        problems = validate_plan(bad, schema)
        assert any("out of range" in p for p in problems)

    def test_name_index_mismatch_flagged(self):
        from repro.core import validate_plan

        schema, _query, _plan = self.make()
        bad = ConditionNode(
            attribute="a",  # index 0 is "mode"
            attribute_index=0,
            split_value=2,
            below=VerdictLeaf(False),
            above=VerdictLeaf(True),
        )
        problems = validate_plan(bad, schema)
        assert any("names" in p for p in problems)

    def test_unreachable_split_flagged(self):
        from repro.core import validate_plan

        schema, _query, _plan = self.make()
        inner = ConditionNode(
            attribute="mode",
            attribute_index=0,
            split_value=2,
            below=VerdictLeaf(False),
            above=VerdictLeaf(True),
        )
        outer = ConditionNode(
            attribute="mode",
            attribute_index=0,
            split_value=2,
            below=inner,  # mode pinned below 2: inner split unreachable
            above=VerdictLeaf(True),
        )
        problems = validate_plan(outer, schema)
        assert any("outside the feasible interval" in p for p in problems)

    def test_out_of_domain_step_flagged(self):
        from repro.core import validate_plan

        schema, _query, _plan = self.make()
        bad = SequentialNode(
            steps=(
                SequentialStep(
                    predicate=RangePredicate("a", 1, 99), attribute_index=1
                ),
            )
        )
        problems = validate_plan(bad, schema)
        assert any("exceed domain" in p for p in problems)

    def test_foreign_predicate_flagged_against_query(self):
        from repro.core import validate_plan

        schema, query, _plan = self.make()
        foreign = SequentialNode(
            steps=(
                SequentialStep(
                    predicate=RangePredicate("c", 1, 2), attribute_index=3
                ),
            )
        )
        problems = validate_plan(foreign, schema, query)
        assert any("not one of the query's predicates" in p for p in problems)

    def test_decompiled_plan_validates(self):
        from repro.core import validate_plan
        from repro.execution.bytecode import compile_plan, decompile_plan

        schema, query, plan = self.make()
        restored = decompile_plan(compile_plan(plan), schema)
        assert validate_plan(restored, schema, query) == []
