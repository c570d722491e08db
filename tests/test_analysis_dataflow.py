"""Tests for the plan dataflow analyzer (abstract interpretation + DF rules).

Every DF* code gets a firing test (a seeded mutation known to contain the
defect) and a non-firing test (the clean canonical corpus must stay silent)
— the same discipline the verifier's mutation tests apply to STR/SEM/RNG.
"""

import pytest

from repro.analysis import (
    AbstractState,
    analyze_plan,
    check_dataflow,
    dataflow_mutations,
    render_analysis,
)
from repro.core import (
    Attribute,
    ConditionNode,
    ConjunctiveQuery,
    RangePredicate,
    Schema,
    SequentialNode,
    VerdictLeaf,
)
from repro.core.predicates import Truth
from repro.verify import verify_plan
from repro.verify.mutations import (
    canonical_conditional_plan,
    canonical_sequential_plan,
)


@pytest.fixture
def schema():
    return Schema(
        (
            Attribute("pressure", domain_size=8, cost=10.0),
            Attribute("flow", domain_size=8, cost=4.0),
        )
    )


@pytest.fixture
def query(schema):
    return ConjunctiveQuery(
        schema,
        (RangePredicate("pressure", 3, 6), RangePredicate("flow", 2, 7)),
    )


def codes(findings):
    return {finding.code for finding in findings}


class TestAbstractState:
    def test_top_is_full_and_unobserved(self, schema):
        state = AbstractState.top(schema)
        assert state.feasible
        assert state.observed == frozenset()
        assert state.interval(0).low == 1 and state.interval(0).high == 8

    def test_assume_split_partitions_and_observes(self, schema):
        state = AbstractState.top(schema)
        below, above = state.assume_split(0, 4)
        assert below.interval(0).high == 3
        assert above.interval(0).low == 4
        assert 0 in below.observed and 0 in above.observed

    def test_assume_split_outside_interval_is_bottom(self, schema):
        state = AbstractState.top(schema)
        below, _ = state.assume_split(0, 2)  # pressure now in [1, 1]
        _, above = below.assume_split(0, 2)  # nothing can be >= 2 here
        assert not above.feasible

    def test_assume_pass_narrows_to_predicate(self, schema):
        state = AbstractState.top(schema)
        passed = state.assume_pass(RangePredicate("pressure", 3, 6), 0)
        assert passed.interval(0).low == 3 and passed.interval(0).high == 6

    def test_truth_of_decided_predicate(self, schema):
        state = AbstractState.top(schema)
        below, above = state.assume_split(0, 7)
        assert below.truth_of(RangePredicate("pressure", 1, 6), 0) is Truth.TRUE
        assert above.truth_of(RangePredicate("pressure", 1, 6), 0) is Truth.FALSE

    def test_bottom_describe(self, schema):
        assert AbstractState.bottom().describe(schema) == "unreachable"


class TestCleanCorpusStaysQuiet:
    def test_canonical_sequential(self, schema, query):
        assert check_dataflow(canonical_sequential_plan(query), schema, query=query) == []

    def test_canonical_conditional(self, schema, query):
        assert check_dataflow(canonical_conditional_plan(query), schema, query=query) == []

    def test_clean_plans_without_query_context(self, schema, query):
        # The rules must not need the query to stay silent on clean plans.
        assert check_dataflow(canonical_conditional_plan(query), schema) == []


class TestMutationsFire:
    """Each seeded mutation fires its documented code."""

    @pytest.mark.parametrize(
        "name", ["decided-step", "redundant-reacquisition", "infeasible-split"]
    )
    def test_case_fires_expected_code(self, query, schema, name):
        case = {c.name: c for c in dataflow_mutations(query)}[name]
        found = codes(check_dataflow(case.plan, schema, query=query))
        assert case.expected_code in found, (name, found)

    def test_df001_dead_branch(self, schema, query):
        # Re-splitting at the same value makes the inner `above` unreachable.
        inner = ConditionNode(
            attribute="pressure",
            attribute_index=0,
            split_value=3,
            below=VerdictLeaf(False),
            above=VerdictLeaf(True),
        )
        plan = ConditionNode(
            attribute="pressure",
            attribute_index=0,
            split_value=3,
            below=inner,
            above=VerdictLeaf(True),
        )
        findings = check_dataflow(plan, schema)
        dead = [f for f in findings if f.code == "DF004"]
        assert [f.path for f in dead] == ["root/below"]

    def test_df002_decided_step(self, schema, query):
        # Below pressure < 3 the pressure predicate is always false.
        plan = ConditionNode(
            attribute="pressure",
            attribute_index=0,
            split_value=3,
            below=canonical_sequential_plan(query),
            above=VerdictLeaf(True),
        )
        findings = check_dataflow(plan, schema, query=query)
        assert "DF002" in codes(findings)

    def test_df003_redundant_reacquisition(self, schema, query):
        plan = ConditionNode(
            attribute="pressure",
            attribute_index=0,
            split_value=3,
            below=canonical_sequential_plan(query),
            above=VerdictLeaf(True),
        )
        redundant = [
            f for f in check_dataflow(plan, schema, query=query) if f.code == "DF003"
        ]
        assert redundant and all("pressure" in f.message for f in redundant)

    def test_df004_infeasible_split(self, schema):
        plan = ConditionNode(
            attribute="pressure",
            attribute_index=0,
            split_value=3,
            below=ConditionNode(
                attribute="pressure",
                attribute_index=0,
                split_value=3,
                below=VerdictLeaf(False),
                above=VerdictLeaf(True),
            ),
            above=VerdictLeaf(True),
        )
        infeasible = [
            f for f in check_dataflow(plan, schema) if f.code == "DF004"
        ]
        assert [f.path for f in infeasible] == ["root/below"]

    def test_df004_is_error_severity(self, schema, query):
        case = {c.name: c for c in dataflow_mutations(query)}["infeasible-split"]
        report = verify_plan(case.plan, schema, query=query)
        assert not report.ok
        assert any(f.code == "DF004" for f in report.errors)


class TestAnalyzePlanFacts:
    def test_every_reachable_node_has_facts(self, schema, query):
        plan = canonical_conditional_plan(query)
        analysis = analyze_plan(plan, schema, query=query)
        assert analysis.at("root").reachable
        for facts in analysis:
            assert facts.state is not None

    def test_query_truth_recorded(self, schema, query):
        # canonical_conditional_plan proves FALSE below the first predicate.
        plan = canonical_conditional_plan(query)
        analysis = analyze_plan(plan, schema, query=query)
        below = analysis.at("root/below")
        assert below.query_truth is Truth.FALSE

    def test_sequential_step_facts_thread_state(self, schema, query):
        plan = canonical_sequential_plan(query)
        analysis = analyze_plan(plan, schema, query=query)
        root = analysis.at("root")
        assert len(root.steps) == len(query.predicates)
        # After passing step 0 the first attribute's interval equals it.
        after_first = root.steps[1].state
        assert after_first.interval(root.node.steps[0].attribute_index).low >= 3

    def test_broken_index_stops_analysis_below(self, schema):
        plan = ConditionNode(
            attribute="ghost",
            attribute_index=99,
            split_value=3,
            below=VerdictLeaf(False),
            above=VerdictLeaf(True),
        )
        analysis = analyze_plan(plan, schema)
        assert analysis.at("root").reachable
        assert analysis.at("root/below") is None  # structural rules own this


class TestRender:
    def test_render_mentions_nodes_and_states(self, schema, query):
        plan = canonical_conditional_plan(query)
        text = render_analysis(analyze_plan(plan, schema, query=query))
        assert "root" in text
        assert "pressure" in text
        assert "always false" in text

    def test_render_marks_unreachable(self, schema):
        plan = ConditionNode(
            attribute="pressure",
            attribute_index=0,
            split_value=3,
            below=ConditionNode(
                attribute="pressure",
                attribute_index=0,
                split_value=3,
                below=VerdictLeaf(False),
                above=VerdictLeaf(True),
            ),
            above=VerdictLeaf(True),
        )
        text = render_analysis(analyze_plan(plan, schema))
        assert "unreachable" in text


class TestVerifierIntegration:
    def test_verify_plan_runs_dataflow_rules(self, schema, query):
        case = {c.name: c for c in dataflow_mutations(query)}["infeasible-split"]
        report = verify_plan(case.plan, schema, query=query)
        assert "DF004" in codes(report.diagnostics)

    def test_clean_plan_report_still_ok(self, schema, query):
        report = verify_plan(canonical_conditional_plan(query), schema, query=query)
        assert report.ok and not report.diagnostics

    def test_sequentialnode_empty_is_true_leaf_not_flagged(self, schema):
        # An empty sequential node is the TRUE leaf encoding, not dead code.
        assert check_dataflow(SequentialNode(steps=()), schema) == []

    def test_warning_only_findings_keep_report_ok(self, schema, query):
        plan = ConditionNode(
            attribute="pressure",
            attribute_index=0,
            split_value=3,
            below=canonical_sequential_plan(query),
            above=VerdictLeaf(True),
        )
        report = verify_plan(plan, schema, query=query)
        assert {"DF002", "DF003"} <= codes(report.diagnostics)
        # DF002/DF003 are warnings, not errors.
        assert not any(f.code in ("DF002", "DF003") for f in report.errors)
