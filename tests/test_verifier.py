"""Unit tests for the static plan verifier's rule families."""

import numpy as np
import pytest

from repro.core import (
    Attribute,
    BooleanQuery,
    ConditionNode,
    ConjunctiveQuery,
    Leaf,
    Or,
    PlanNode,
    RangePredicate,
    Schema,
    SequentialNode,
    SequentialStep,
    VerdictLeaf,
    validate_plan,
)
from repro.exceptions import PlanError, PlanVerificationError
from repro.execution import compile_plan
from repro.probability import EmpiricalDistribution
from repro.verify import (
    CODE_CATALOG,
    Severity,
    assert_valid_plan,
    verify_bytecode,
    verify_plan,
)
from repro.verify.mutations import (
    canonical_conditional_plan,
    canonical_sequential_plan,
)


@pytest.fixture
def schema() -> Schema:
    return Schema(
        [
            Attribute("a", 8, 1.0),
            Attribute("b", 8, 2.0),
            Attribute("c", 8, 4.0),
        ]
    )


@pytest.fixture
def query(schema) -> ConjunctiveQuery:
    return ConjunctiveQuery(
        schema,
        [
            RangePredicate("a", 3, 6),
            RangePredicate("b", 2, 5),
            RangePredicate("c", 4, 7),
        ],
    )


@pytest.fixture
def distribution(schema) -> EmpiricalDistribution:
    rng = np.random.default_rng(0)
    history = rng.integers(1, 9, size=(500, 3))
    return EmpiricalDistribution(schema, history, smoothing=0.5)


def step(query: ConjunctiveQuery, position: int) -> SequentialStep:
    return SequentialStep(
        predicate=query.predicates[position],
        attribute_index=query.attribute_indices[position],
    )


class TestCatalog:
    def test_codes_are_unique_and_prefixed(self):
        assert len(CODE_CATALOG) == len(set(CODE_CATALOG))
        for code, (severity, title) in CODE_CATALOG.items():
            assert code[:3] in (
                "STR",
                "SEM",
                "RNG",
                "COS",
                "BC0",
                "DF0",
                "DF1",
                "FT0",
                "LRN",
            )
            assert isinstance(severity, Severity)
            assert title

    def test_every_diagnostic_code_is_registered(self, schema, query):
        plan = SequentialNode(steps=(step(query, 0),))
        report = verify_plan(plan, schema, query=query)
        for diagnostic in report:
            assert diagnostic.code in CODE_CATALOG


class TestStructuralRules:
    def test_clean_plans(self, schema, query):
        for plan in (
            canonical_sequential_plan(query),
            canonical_conditional_plan(query),
        ):
            assert verify_plan(plan, schema, query=query).ok

    def test_condition_index_out_of_range(self, schema):
        plan = ConditionNode(
            attribute="ghost",
            attribute_index=9,
            split_value=3,
            below=VerdictLeaf(verdict=False),
            above=VerdictLeaf(verdict=True),
        )
        report = verify_plan(plan, schema)
        assert report.has("STR002")
        assert not report.ok

    def test_condition_name_mismatch(self, schema):
        plan = ConditionNode(
            attribute="b",
            attribute_index=0,
            split_value=3,
            below=VerdictLeaf(verdict=False),
            above=VerdictLeaf(verdict=True),
        )
        assert verify_plan(plan, schema).has("STR003")

    def test_step_bounds_exceed_domain(self, schema):
        plan = SequentialNode(
            steps=(
                SequentialStep(
                    predicate=RangePredicate("a", 1, 20), attribute_index=0
                ),
            )
        )
        assert verify_plan(plan, schema).has("STR004")

    def test_unknown_node_type(self, schema):
        class Mystery(PlanNode):
            pass

        assert verify_plan(Mystery(), schema).has("STR001")


class TestSemanticRules:
    def test_dropped_conjunct(self, schema, query):
        plan = SequentialNode(steps=(step(query, 0), step(query, 1)))
        report = verify_plan(plan, schema, query=query)
        assert report.has("SEM001")

    def test_duplicate_step(self, schema, query):
        plan = SequentialNode(
            steps=(step(query, 0), step(query, 0), step(query, 1), step(query, 2))
        )
        assert verify_plan(plan, schema, query=query).has("SEM002")

    def test_foreign_predicate(self, schema, query):
        foreign = SequentialStep(
            predicate=RangePredicate("c", 1, 2), attribute_index=2
        )
        plan = SequentialNode(steps=(step(query, 0), step(query, 1), foreign))
        assert verify_plan(plan, schema, query=query).has("SEM003")

    def test_retest_of_decided_predicate_is_warning(self, schema, query):
        # Context [3, 6] on `a` proves its predicate TRUE; re-testing it is
        # wasted acquisition, not wrong answers.
        plan = ConditionNode(
            attribute="a",
            attribute_index=0,
            split_value=3,
            below=VerdictLeaf(verdict=False),
            above=ConditionNode(
                attribute="a",
                attribute_index=0,
                split_value=7,
                below=canonical_sequential_plan(query),
                above=VerdictLeaf(verdict=False),
            ),
        )
        report = verify_plan(plan, schema, query=query)
        assert report.has("DF002")
        assert report.ok  # warning only

    def test_unjustified_verdict(self, schema, query):
        report = verify_plan(VerdictLeaf(verdict=True), schema, query=query)
        assert report.has("SEM005")

    def test_contradicting_verdict(self, schema, query):
        plan = ConditionNode(
            attribute="a",
            attribute_index=0,
            split_value=3,
            below=VerdictLeaf(verdict=True),  # a in [1, 2] proves FALSE
            above=canonical_sequential_plan(query),
        )
        assert verify_plan(plan, schema, query=query).has("SEM006")

    def test_leaf_ignoring_failed_conjunct(self, schema, query):
        # Context proves `a`'s predicate false, but the leaf only tests b/c:
        # some tuple can pass every step and be wrongly accepted.
        plan = ConditionNode(
            attribute="a",
            attribute_index=0,
            split_value=3,
            below=SequentialNode(steps=(step(query, 1), step(query, 2))),
            above=canonical_sequential_plan(query),
        )
        assert verify_plan(plan, schema, query=query).has("SEM006")

    def test_leaf_testing_failed_conjunct_is_equivalent(self, schema, query):
        # The leaf re-tests the proven-false conjunct, so it always answers
        # False — semantically exact, just not minimal.
        plan = ConditionNode(
            attribute="a",
            attribute_index=0,
            split_value=3,
            below=SequentialNode(steps=(step(query, 0),)),
            above=canonical_sequential_plan(query),
        )
        report = verify_plan(plan, schema, query=query)
        assert report.ok

    def test_sequential_leaf_under_boolean_query(self, schema, query):
        boolean = BooleanQuery(
            schema,
            Or(
                Leaf(RangePredicate("a", 3, 6)),
                Leaf(RangePredicate("b", 2, 5)),
            ),
        )
        plan = SequentialNode(steps=(step(query, 0),))
        assert verify_plan(plan, schema, query=boolean).has("SEM007")

    def test_boolean_verdicts_still_checked(self, schema):
        boolean = BooleanQuery(
            schema,
            Or(
                Leaf(RangePredicate("a", 3, 6)),
                Leaf(RangePredicate("b", 2, 5)),
            ),
        )
        assert verify_plan(
            VerdictLeaf(verdict=False), schema, query=boolean
        ).has("SEM005")


class TestRangeRules:
    def test_unreachable_repeated_split(self, schema, query):
        inner = ConditionNode(
            attribute="a",
            attribute_index=0,
            split_value=5,
            below=VerdictLeaf(verdict=False),
            above=VerdictLeaf(verdict=False),
        )
        plan = ConditionNode(
            attribute="a",
            attribute_index=0,
            split_value=5,
            below=inner,
            above=canonical_sequential_plan(query),
        )
        assert verify_plan(plan, schema, query=query).has("DF004")

    def test_split_below_decided_context_is_warning(self, schema):
        # One-predicate query: the below branch already proves it false,
        # yet the plan conditions again before answering.
        query = ConjunctiveQuery(schema, [RangePredicate("a", 5, 8)])
        plan = ConditionNode(
            attribute="a",
            attribute_index=0,
            split_value=5,
            below=ConditionNode(
                attribute="b",
                attribute_index=1,
                split_value=4,
                below=VerdictLeaf(verdict=False),
                above=VerdictLeaf(verdict=False),
            ),
            above=VerdictLeaf(verdict=True),
        )
        report = verify_plan(plan, schema, query=query)
        assert report.has("RNG002")
        assert report.ok

    def test_degenerate_split_is_unconstructible(self):
        with pytest.raises(PlanError):
            ConditionNode(
                attribute="a",
                attribute_index=0,
                split_value=1,
                below=VerdictLeaf(verdict=False),
                above=VerdictLeaf(verdict=True),
            )


class TestCostRules:
    def test_correct_claimed_cost_passes(self, schema, query, distribution):
        from repro.core import expected_cost

        plan = canonical_conditional_plan(query)
        claimed = expected_cost(plan, distribution)
        report = verify_plan(
            plan, schema, query=query, distribution=distribution,
            claimed_cost=claimed,
        )
        assert report.ok

    def test_wrong_claimed_cost(self, schema, query, distribution):
        plan = canonical_conditional_plan(query)
        report = verify_plan(
            plan, schema, query=query, distribution=distribution,
            claimed_cost=1e9,
        )
        assert report.has("COST001")

    def test_dead_branch_is_warning(self, schema, query):
        # Unsmoothed statistics where `a` never falls below 5: the below
        # branch of a split at 5 has zero probability.
        history = np.full((200, 3), 5, dtype=np.int64)
        distribution = EmpiricalDistribution(schema, history, smoothing=0.0)
        plan = ConditionNode(
            attribute="a",
            attribute_index=0,
            split_value=5,
            below=VerdictLeaf(verdict=False),
            above=canonical_sequential_plan(query),
        )
        report = verify_plan(plan, schema, distribution=distribution)
        assert report.has("COST004")
        assert report.ok

    def test_probability_outside_unit_interval(self, schema, distribution):
        class BrokenDistribution:
            def __init__(self, inner):
                self._inner = inner
                self.schema = inner.schema

            def split_probability(self, index, value, ranges):
                return 1.5

            def sequential_conditioner(self, ranges):
                return self._inner.sequential_conditioner(ranges)

        plan = ConditionNode(
            attribute="a",
            attribute_index=0,
            split_value=5,
            below=VerdictLeaf(verdict=False),
            above=VerdictLeaf(verdict=True),
        )
        report = verify_plan(
            plan, schema, distribution=BrokenDistribution(distribution)
        )
        assert report.has("COST002")


class TestEntryPoints:
    def test_check_compiled_round_trip(self, schema, query, distribution):
        plan = canonical_conditional_plan(query)
        report = verify_plan(
            plan, schema, query=query, distribution=distribution,
            check_compiled=True,
        )
        assert report.ok

    def test_verify_bytecode_clean(self, schema, query, distribution):
        code = compile_plan(canonical_conditional_plan(query))
        report = verify_bytecode(
            code, schema, query=query, distribution=distribution
        )
        assert report.ok

    def test_assert_valid_plan_raises_with_report(self, schema, query):
        with pytest.raises(PlanVerificationError) as excinfo:
            assert_valid_plan(VerdictLeaf(verdict=True), schema, query=query)
        assert excinfo.value.report is not None
        assert excinfo.value.report.has("SEM005")

    def test_report_formatting_and_dict(self, schema, query):
        report = verify_plan(VerdictLeaf(verdict=True), schema, query=query)
        text = report.format()
        assert "SEM005" in text and "ERROR" in text
        payload = report.as_dict()
        assert payload["ok"] is False
        assert payload["diagnostics"][0]["code"] == "SEM005"

    def test_errors_sort_before_warnings(self, schema, query):
        # A plan with both a warning (re-test) and an error (dropped conjunct).
        plan = ConditionNode(
            attribute="a",
            attribute_index=0,
            split_value=3,
            below=VerdictLeaf(verdict=False),
            above=ConditionNode(
                attribute="a",
                attribute_index=0,
                split_value=7,
                below=SequentialNode(steps=(step(query, 0), step(query, 1))),
                above=VerdictLeaf(verdict=False),
            ),
        )
        report = verify_plan(plan, schema, query=query)
        assert not report.ok
        severities = [d.severity for d in report]
        assert severities == sorted(
            severities, key=lambda s: -s.rank
        )


class TestValidatePlanWrapper:
    def test_validate_plan_matches_verifier_errors(self, schema, query):
        plan = SequentialNode(steps=(step(query, 0), step(query, 1)))
        problems = validate_plan(plan, schema, query=query)
        report = verify_plan(plan, schema, query=query)
        assert problems == [d.message for d in report.errors]

    def test_validate_plan_clean(self, schema, query):
        assert validate_plan(canonical_sequential_plan(query), schema, query=query) == []
