"""Mutation-based self-test of the verifier.

Each :func:`~repro.verify.plan_mutations` /
:func:`~repro.verify.bytecode_mutations` case seeds one known defect
class into an otherwise-correct plan; the verifier must flag every one
with its documented error code.  The cases are run once, by the
``plan`` family of :mod:`repro.corpus`.  This is the verifier's own regression
harness: a rule that silently stops firing breaks these tests, not a
production run.
"""

import pytest

from repro.core import (
    Attribute,
    ConjunctiveQuery,
    RangePredicate,
    Schema,
    expected_cost,
)
from repro.corpus import FAMILIES
from repro.execution import compile_plan
from repro.verify import (
    CODE_CATALOG,
    bytecode_mutations,
    plan_mutations,
    verify_plan,
)
from repro.verify.mutations import (
    canonical_conditional_plan,
    canonical_sequential_plan,
)


@pytest.fixture(scope="module")
def schema() -> Schema:
    return Schema(
        [
            Attribute("a", 8, 1.0),
            Attribute("b", 8, 2.0),
            Attribute("c", 8, 4.0),
        ]
    )


@pytest.fixture(scope="module")
def query(schema) -> ConjunctiveQuery:
    return ConjunctiveQuery(
        schema,
        [
            RangePredicate("a", 3, 6),
            RangePredicate("b", 2, 5),
            RangePredicate("c", 4, 7),
        ],
    )


def test_canonical_plans_verify_clean(schema, query):
    for plan in (
        canonical_sequential_plan(query),
        canonical_conditional_plan(query),
    ):
        report = verify_plan(plan, schema, query=query, check_compiled=True)
        assert report.ok, report.format()


def test_every_expected_code_is_documented(query):
    for case in plan_mutations(query) + bytecode_mutations(query):
        assert case.expected_code in CODE_CATALOG, case.name


def test_plan_mutation_corpus_covers_issue_classes(query):
    # The acceptance list from the issue: dropped conjunct, flipped
    # verdict, overlapping split ranges (plus the extra seeded classes).
    names = {case.name for case in plan_mutations(query)}
    assert {
        "dropped-conjunct",
        "flipped-verdict",
        "overlapping-split",
    } <= names


def test_bytecode_mutation_corpus_covers_issue_classes(query):
    # Out-of-bounds offset and wrong size_bytes, per the issue.
    names = {case.name for case in bytecode_mutations(query)}
    assert {"oob-offset", "wrong-size"} <= names


@pytest.mark.parametrize(
    "case",
    [case for case in FAMILIES["plan"]() if case.expected_code],
    ids=lambda case: case.name,
)
def test_plan_mutation_detected_with_documented_code(case):
    # The corpus's plan family: every plan and bytecode mutation plus the
    # structural and cost-claim defects, each verified by the corpus.
    assert case.expected_code in case.fired, (
        f"{case.name}: expected {case.expected_code}, got {sorted(case.fired)}"
    )
    assert not case.ok


def test_mutated_plans_differ_from_canonical(schema, query):
    # Sanity: every mutation really changed something (otherwise the
    # detection test above would be vacuous).
    sequential = canonical_sequential_plan(query)
    conditional = canonical_conditional_plan(query)
    for case in plan_mutations(query):
        assert case.plan not in (sequential, conditional), case.name
    baseline = compile_plan(conditional)
    for case in bytecode_mutations(query):
        assert case.code != baseline, case.name


def test_wrong_cost_mutation_via_claimed_cost(schema, query):
    # COST001 isn't seeded through a tree mutation — it is a claim about
    # the tree — so exercise it directly here alongside the corpus.
    import numpy as np

    from repro.probability import EmpiricalDistribution

    rng = np.random.default_rng(0)
    distribution = EmpiricalDistribution(
        schema, rng.integers(1, 9, size=(500, 3)), smoothing=0.5
    )
    plan = canonical_conditional_plan(query)
    true_cost = expected_cost(plan, distribution)
    assert verify_plan(
        plan, schema, query=query, distribution=distribution,
        claimed_cost=true_cost,
    ).ok
    assert verify_plan(
        plan, schema, query=query, distribution=distribution,
        claimed_cost=true_cost * 2 + 1,
    ).has("COST001")
