"""Planner certificates read off the search equal the Eq. 3 walk's bounds.

GreedyPlan (Heuristic-k) builds its :class:`~repro.analysis.CostCertificate`
from the numbers its scoring passes already hold: a leaf's sequential
cost, a split's acquisition and probability.  When the rewriter changes a
plan, :func:`~repro.analysis.certificates.carry_certificate` keeps the
claims of every unchanged subtree and prices only the rewritten ones.
These tests hold both to :func:`~repro.analysis.certify_plan`, bit for
bit at every path, over the golden plan-digest corpus and over plans
rewritten by each rewrite kind, and check that DF101 and the
``analyze --suite`` gate refute a certificate that drifts from Eq. 3.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.analysis.certificates
import repro.planning.exhaustive
import repro.planning.greedy_conditional
import tests.test_plan_digests as digests
from repro import cli
from repro.analysis import (
    CostCertificate,
    carry_certificate,
    certify_plan,
    dataflow_mutations,
    optimize_plan,
)
from repro.core import (
    Attribute,
    ConditionNode,
    ConjunctiveQuery,
    RangePredicate,
    RangeVector,
    Schema,
    SequentialNode,
    SequentialStep,
    VerdictLeaf,
)
from repro.core.cost import cost_decomposition
from repro.data import generate_lab_dataset
from repro.engine.language import parse_query
from repro.learn.workloads import adversarial_stream
from repro.planning import CorrSeqPlanner, ExhaustivePlanner, GreedyConditionalPlanner
from repro.probability import EmpiricalDistribution
from repro.verify import verify_plan


def _hexed(certificate: CostCertificate) -> dict[str, str]:
    return {path: bound.hex() for path, bound in certificate.bounds.items()}


def _digest_corpus():
    """``(distribution, query)`` of every plan the golden digests hold."""
    lab = generate_lab_dataset(
        n_readings=40_000, n_motes=8, seed=0, domain_sizes=digests._LAB_DOMAINS
    )
    train = lab.data[:20_000]
    histories = (train, train[1_000:17_000], train[4_000:20_000])
    texts = digests._lab_texts(lab.schema, train, 24, pool_seed=11)
    texts += digests._lab_texts(lab.schema, train, 36, pool_seed=23)
    for history in histories:
        distribution = EmpiricalDistribution(lab.schema, history)
        for text in texts:
            yield distribution, parse_query(text, lab.schema).query
    for seed in range(25):
        stream = adversarial_stream(3, 90, seed=seed)
        query = parse_query(digests._STREAM_TEXT, stream.schema).query
        for end in (96, 150, 210, 270):
            window = stream.data[end - 96 : end]
            yield EmpiricalDistribution(stream.schema, window), query


def test_heuristic_certificates_equal_eq3_over_the_digest_corpus(monkeypatch):
    rewritten: list[bool] = []
    optimize = repro.planning.greedy_conditional.optimize_plan

    def recording(plan, *args, **kwargs):
        optimized = optimize(plan, *args, **kwargs)
        rewritten.append(optimized is not plan)
        return optimized

    monkeypatch.setattr(repro.planning.greedy_conditional, "optimize_plan", recording)
    plans = 0
    for distribution, query in _digest_corpus():
        planner = GreedyConditionalPlanner(
            distribution, CorrSeqPlanner(distribution), max_splits=5
        )
        result = planner.plan(query)
        eq3 = certify_plan(result.plan, distribution)
        assert list(result.certificate.bounds) == list(eq3.bounds)
        assert _hexed(result.certificate) == _hexed(eq3), result.plan.pretty()
        if rewritten[-1]:
            assert result.expected_cost.hex() == eq3.bounds["root"].hex()
        plans += 1
    assert plans == 3 * (24 + 36) + 100
    # The corpus holds rewritten plans too (collapsed identical branches,
    # subtrees whose context decides the query).
    assert sum(rewritten) >= 40


@pytest.fixture(scope="module")
def schema() -> Schema:
    return Schema(
        [Attribute("a", 8, 1.0), Attribute("b", 8, 2.0), Attribute("c", 8, 4.0)]
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


@pytest.fixture(scope="module")
def distribution(schema) -> EmpiricalDistribution:
    data = np.random.default_rng(0).integers(1, 9, size=(500, 3))
    return EmpiricalDistribution(schema, data, smoothing=0.5)


def _split(schema, index: int, value: int, below, above) -> ConditionNode:
    return ConditionNode(
        attribute=schema[index].name,
        attribute_index=index,
        split_value=value,
        below=below,
        above=above,
    )


def _steps(query) -> SequentialNode:
    """Every conjunct, in predicate order."""
    return SequentialNode(
        steps=tuple(
            SequentialStep(predicate=predicate, attribute_index=index)
            for predicate, index in zip(query.predicates, query.attribute_indices)
        )
    )


def _decided_step_plan(schema, query):
    """Under ``3 <= a < 7`` the leaf's ``a`` step always passes: folded away."""
    inner = _split(schema, 0, 7, _steps(query), VerdictLeaf(verdict=False))
    return _split(schema, 0, 3, VerdictLeaf(verdict=False), inner)


def _rewrites(schema, query):
    mutants = {case.name: case.plan for case in dataflow_mutations(query)}
    return {
        "decided-step-folding": _decided_step_plan(schema, query),
        "query-subsumption": mutants["decided-step"],
        "dead-branch-removal": mutants["infeasible-split"],
    }


@pytest.mark.parametrize(
    "kind", ["decided-step-folding", "query-subsumption", "dead-branch-removal"]
)
def test_carried_certificate_equals_eq3_on_a_rewrite(schema, query, distribution, kind):
    plan = _rewrites(schema, query)[kind]
    rewritten = optimize_plan(plan, schema, query=query)
    assert rewritten is not plan
    # Every claim the input plan's walk can make (none above a broken node).
    claims = CostCertificate(
        bounds={
            path: record.bound
            for path, record in cost_decomposition(plan, distribution).items()
            if record.bound is not None
        }
    )
    carried = carry_certificate(plan, claims, rewritten, distribution)
    eq3 = certify_plan(rewritten, distribution)
    assert list(carried.bounds) == list(eq3.bounds)
    assert _hexed(carried) == _hexed(eq3)


def test_decided_step_folding_reprices_only_the_folded_leaf(
    monkeypatch, schema, query, distribution
):
    plan = _decided_step_plan(schema, query)
    rewritten = optimize_plan(plan, schema, query=query)
    # The ``a`` step is folded out of the leaf; nothing else changes.
    assert rewritten.above.below == SequentialNode(steps=_steps(query).steps[1:])
    assert rewritten.above.above == plan.above.above
    claims = certify_plan(plan, distribution)
    priced = []
    walk = repro.analysis.certificates.cost_decomposition

    def spying(node, *args, **kwargs):
        priced.append(node)
        return walk(node, *args, **kwargs)

    monkeypatch.setattr(repro.analysis.certificates, "cost_decomposition", spying)
    carry_certificate(plan, claims, rewritten, distribution)
    assert priced == [rewritten.above.below]


def test_exhaustive_carries_its_dp_claims_over_a_rewrite(monkeypatch):
    schema = Schema(
        [Attribute("a", 4, 1.0), Attribute("b", 4, 2.0), Attribute("c", 4, 4.0)]
    )
    data = np.random.default_rng(0).integers(1, 5, size=(300, 3))
    distribution = EmpiricalDistribution(schema, data, smoothing=0.0)
    query = ConjunctiveQuery(
        schema, [RangePredicate("a", 2, 3), RangePredicate("b", 2, 4)]
    )
    rewritten: list[bool] = []
    optimize = repro.planning.exhaustive.optimize_plan

    def recording(plan, *args, **kwargs):
        optimized = optimize(plan, *args, **kwargs)
        rewritten.append(optimized is not plan)
        return optimized

    monkeypatch.setattr(repro.planning.exhaustive, "optimize_plan", recording)
    result = ExhaustivePlanner(distribution).plan(query)
    assert rewritten == [True]
    assert result.certificate.source == "exhaustive-dp"
    eq3 = _hexed(certify_plan(result.plan, distribution))
    assert _hexed(result.certificate).items() <= eq3.items()
    assert result.expected_cost.hex() == eq3["root"]
    report = verify_plan(
        result.plan,
        schema,
        query=query,
        distribution=distribution,
        claimed_cost=result.expected_cost,
        certificate=result.certificate,
    )
    assert report.ok, report.format()


class TestDriftingPassesAreRefuted:
    @pytest.fixture
    def drifting(self, monkeypatch):
        """Every condition bound the passes sum comes out 1 too high."""
        genuine = repro.planning.greedy_conditional.condition_bound

        def drifted(*args):
            return genuine(*args) + 1.0

        monkeypatch.setattr(
            repro.planning.greedy_conditional, "condition_bound", drifted
        )

    def test_df101_refutes_the_planner_claim(
        self, drifting, schema, query, distribution
    ):
        result = GreedyConditionalPlanner(
            distribution, CorrSeqPlanner(distribution), max_splits=5
        ).plan(query)
        assert isinstance(result.plan, ConditionNode)
        report = verify_plan(
            result.plan,
            schema,
            query=query,
            distribution=distribution,
            certificate=result.certificate,
        )
        assert ("DF101", "root") in [(d.code, d.path) for d in report.errors]

    def test_the_suite_gate_fails(self, drifting, capsys):
        assert cli.main(["analyze", "--suite"]) == 1
        out = capsys.readouterr().out
        assert "certificate gate FAILED: lab/greedy-split" in out


def test_a_narrowed_root_context_carries_too(schema, query, distribution):
    narrowed = RangeVector.full(schema).split(0, 3)[1]
    plan = _split(schema, 0, 7, _steps(query), VerdictLeaf(verdict=False))
    rewritten = optimize_plan(plan, schema, query=query, ranges=narrowed)
    assert rewritten is not plan
    carried = carry_certificate(
        plan,
        certify_plan(plan, distribution, ranges=narrowed),
        rewritten,
        distribution,
        ranges=narrowed,
    )
    assert _hexed(carried) == _hexed(
        certify_plan(rewritten, distribution, ranges=narrowed)
    )
