"""One analysis per plan: walk counts, the shared tolerance, and edge cases.

``verify_plan`` runs one dataflow pass (the tree and DF rules read its
facts) and one Eq. 3 walk (``cost_decomposition``: the COST rules, DF101
and the certificate bounds read its records).  ``optimize_plan`` rewrites
from one dataflow pass of its input and analyses only a changed
candidate.  GreedyPlan reads its certificate off its scoring passes (no
Eq. 3 walk for an unrewritten plan, one per rewritten subtree), and a
refit re-admits a kept plan from its one re-certification walk.
Counting wrappers pin those numbers; the edge cases pin what
the one walk must still get right:
model-dead branches keep their bounds, broken nodes hide their subtrees,
a narrowed root context and a boolean query.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Any, Callable

import numpy as np
import pytest

import repro.analysis.dataflow
import repro.analysis.domain
import repro.core.cost
import repro.planning.greedy_conditional
import repro.service.service
from repro.analysis import (
    CostCertificate,
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
    VerdictLeaf,
    expected_cost,
)
from repro.core.boolean import BooleanQuery, Leaf, Or
from repro.core.predicates import Truth
from repro.engine import AcquisitionalEngine
from repro.engine.language import parse_query
from repro.exceptions import PlanError
from repro.learn.workloads import adversarial_stream
from repro.obs.drift import DriftMonitor
from repro.planning import CorrSeqPlanner, ExhaustivePlanner, GreedyConditionalPlanner
from repro.probability import EmpiricalDistribution
from repro.service import AcquisitionalService
from repro.verify import iter_plan_paths, verify_plan
from repro.verify.mutations import canonical_conditional_plan, leaf_for
from repro.verify.rules import check_tree


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


@pytest.fixture(scope="module")
def dead_model(schema) -> EmpiricalDistribution:
    """Every row has ``a == 5``: a split at 5 has P(below) = 0, at 6 it is 1."""
    data = np.random.default_rng(3).integers(1, 9, size=(200, 3))
    data[:, 0] = 5
    return EmpiricalDistribution(schema, data, smoothing=0.0)


def _split(schema, index: int, value: int, below, above) -> ConditionNode:
    return ConditionNode(
        attribute=schema[index].name,
        attribute_index=index,
        split_value=value,
        below=below,
        above=above,
    )


def _conditional(schema, query, ranges: RangeVector, splits) -> Any:
    """A correct plan splitting on ``(index, value)`` pairs in turn, down
    to the contexts the query leaves undetermined."""
    if not splits or query.truth_under(ranges) is not Truth.UNDETERMINED:
        return leaf_for(query, ranges)
    (index, value), rest = splits[0], splits[1:]
    below, above = ranges.split(index, value)
    return _split(
        schema,
        index,
        value,
        _conditional(schema, query, below, rest),
        _conditional(schema, query, above, rest),
    )


def _contexts(plan, context: RangeVector) -> dict[str, RangeVector]:
    """Every node's range context, for a plan whose splits are sound."""
    found: dict[str, RangeVector] = {}

    def walk(node, ranges, path):
        found[path] = ranges
        if isinstance(node, ConditionNode):
            below, above = ranges.split(node.attribute_index, node.split_value)
            walk(node.below, below, path + "/below")
            walk(node.above, above, path + "/above")

    walk(plan, context, "root")
    return found


def _patch_everywhere(monkeypatch, function: Callable, replacement: Callable) -> None:
    """Replace ``function`` under every name a ``repro`` module binds it to."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is function:
                monkeypatch.setattr(module, name, replacement)


def _spy(monkeypatch, *functions: Callable) -> list[tuple[str, Any]]:
    """Record ``(name, first argument)`` of every call to each function."""
    calls: list[tuple[str, Any]] = []
    for function in functions:

        def spying(*args, __function=function, **kwargs):
            calls.append((__function.__name__, args[0] if args else None))
            return __function(*args, **kwargs)

        _patch_everywhere(monkeypatch, function, spying)
    return calls


_WALKS = (
    repro.analysis.dataflow.analyze_plan,
    repro.core.cost.cost_decomposition,
    repro.core.cost.expected_cost,
    certify_plan,
)


def _record_rewrites(monkeypatch) -> list[bool]:
    """Whether each of the greedy planner's rewrites changed its plan."""
    rewritten: list[bool] = []
    optimize = repro.planning.greedy_conditional.optimize_plan

    def recording(plan, *args, **kwargs):
        optimized = optimize(plan, *args, **kwargs)
        rewritten.append(optimized != plan)
        return optimized

    monkeypatch.setattr(repro.planning.greedy_conditional, "optimize_plan", recording)
    return rewritten


def _assert_eq3_certificate(result, distribution) -> None:
    """The planner's certificate is :func:`certify_plan`'s, bit for bit."""
    hexed = {path: bound.hex() for path, bound in result.certificate.bounds.items()}
    assert hexed == {
        path: bound.hex()
        for path, bound in certify_plan(result.plan, distribution).bounds.items()
    }


def _count_method(monkeypatch, counts: Counter, cls: type, name: str) -> None:
    method = getattr(cls, name)

    def counting(*args, **kwargs):
        counts[name] += 1
        return method(*args, **kwargs)

    monkeypatch.setattr(cls, name, counting)


def _walk_counters(monkeypatch, distribution) -> tuple[list, Counter]:
    calls = _spy(monkeypatch, *_WALKS)
    counts: Counter = Counter()
    _count_method(monkeypatch, counts, repro.analysis.domain.AbstractState, "assume_split")
    _count_method(monkeypatch, counts, type(distribution), "split_probability")
    return calls, counts


class TestWalkCounts:
    @pytest.mark.parametrize("with_certificate", [False, True])
    def test_verify_plan_walks_each_plan_once(
        self, monkeypatch, schema, query, distribution, with_certificate
    ):
        plan = _conditional(
            schema, query, RangeVector.full(schema), [(0, 3), (1, 4), (2, 6)]
        )
        conditions = sum(
            isinstance(node, ConditionNode) for _path, node in iter_plan_paths(plan)
        )
        assert conditions == 4
        certificate = certify_plan(plan, distribution) if with_certificate else None
        claimed = expected_cost(plan, distribution)
        calls, counts = _walk_counters(monkeypatch, distribution)
        report = verify_plan(
            plan,
            schema,
            query=query,
            distribution=distribution,
            claimed_cost=claimed,
            certificate=certificate,
        )
        assert report.ok, report.format()
        assert Counter(name for name, _plan in calls) == Counter(
            analyze_plan=1, cost_decomposition=1
        )
        # One interval walk and one Eq. 3 walk: each condition node is
        # split once abstractly and priced once.
        assert counts["assume_split"] == conditions
        assert counts["split_probability"] == conditions

    def test_admission_makes_no_expected_cost_call(self, monkeypatch):
        stream = adversarial_stream(3, 90, seed=21)
        service = AcquisitionalService(
            AcquisitionalEngine(stream.schema, stream.data[114:210])
        )
        calls = _spy(monkeypatch, *_WALKS)
        during: list[Counter] = []
        admit = repro.service.service.verify_plan

        def recording(*args, **kwargs):
            before = len(calls)
            report = admit(*args, **kwargs)
            during.append(Counter(name for name, _plan in calls[before:]))
            return report

        monkeypatch.setattr(repro.service.service, "verify_plan", recording)
        text = (
            "SELECT * WHERE mode BETWEEN 1 AND 3 AND p BETWEEN 1 AND 2 "
            "AND q BETWEEN 1 AND 2"
        )
        service.execute(text, stream.data[:64])
        assert during == [Counter(analyze_plan=1, cost_decomposition=1)]

    def test_greedy_certifies_an_unrewritten_plan_without_a_walk(
        self, monkeypatch, query, distribution
    ):
        planner = GreedyConditionalPlanner(
            distribution, CorrSeqPlanner(distribution), max_splits=5
        )
        rewritten = _record_rewrites(monkeypatch)
        calls = _spy(monkeypatch, *_WALKS)
        result = planner.plan(query)
        assert rewritten == [False]
        # The scoring passes priced every leaf and split: only the
        # rewriter's interval pass walks the plan.
        assert Counter(name for name, _plan in calls) == Counter(analyze_plan=1)
        assert set(result.certificate.bounds) == {
            path for path, _node in iter_plan_paths(result.plan)
        }
        _assert_eq3_certificate(result, distribution)

    def test_greedy_reprices_only_the_rewritten_subtrees(self, monkeypatch):
        stream = adversarial_stream(3, 90, seed=21)
        distribution = EmpiricalDistribution(stream.schema, stream.data[114:210])
        planner = GreedyConditionalPlanner(
            distribution, CorrSeqPlanner(distribution), max_splits=5
        )
        query = parse_query(
            "SELECT * WHERE mode BETWEEN 1 AND 3 AND p BETWEEN 1 AND 2 "
            "AND q BETWEEN 1 AND 2",
            stream.schema,
        ).query
        rewritten = _record_rewrites(monkeypatch)
        calls = _spy(monkeypatch, *_WALKS)
        result = planner.plan(query)
        assert rewritten == [True]
        # The rewrite collapsed the identical sides of ``root/below`` into
        # their leaf, now under a wider context: the one subtree Eq. 3
        # prices.  The root keeps its split and is re-summed; its verdict
        # side keeps its pass bound.
        priced = [plan for name, plan in calls if name != "analyze_plan"]
        assert priced == [dict(iter_plan_paths(result.plan))["root/below"]]
        assert Counter(name for name, _plan in calls) == Counter(
            analyze_plan=2, cost_decomposition=1
        )
        assert result.expected_cost == result.certificate.bounds["root"]
        _assert_eq3_certificate(result, distribution)


class TestRefitWalks:
    TEXTS = (
        "SELECT * WHERE a BETWEEN 3 AND 6 AND b BETWEEN 2 AND 5",
        "SELECT * WHERE b BETWEEN 2 AND 5 AND c BETWEEN 4 AND 7",
        "SELECT a WHERE a BETWEEN 3 AND 6 AND c BETWEEN 4 AND 7",
    )

    def test_refit_walks_each_kept_plan_once(self, monkeypatch, schema):
        data = np.random.default_rng(0).integers(1, 9, size=(500, 3))
        service = AcquisitionalService(AcquisitionalEngine(schema, data))
        for text in self.TEXTS:
            service.plan_for(text)
        calls = _spy(monkeypatch, *_WALKS, verify_plan)
        service.refit(data)
        counters = service.stats()["counters"]
        assert counters["plans_recertified"] == len(self.TEXTS)
        assert counters.get("plans_rejected", 0) == 0
        assert len(service.cache) == len(self.TEXTS)
        # One Eq. 3 walk per kept plan: its cost and the re-admission's
        # cost rules both read it; the structural rules do not run again.
        assert Counter(name for name, _plan in calls) == Counter(
            cost_decomposition=len(self.TEXTS)
        )
        assert {id(plan) for _name, plan in calls} == {
            id(service.plan_for(text).plan) for text in self.TEXTS
        }


class TestRewriterWalks:
    def _counters(self, monkeypatch) -> Counter:
        """Count ``analyze_plan`` calls, and ``assume_split`` calls made
        outside any of them."""
        counts: Counter = Counter()
        depth = [0]
        analyze = repro.analysis.dataflow.analyze_plan
        split = repro.analysis.domain.AbstractState.assume_split

        def analyzing(*args, **kwargs):
            counts["analyze_plan"] += 1
            depth[0] += 1
            try:
                return analyze(*args, **kwargs)
            finally:
                depth[0] -= 1

        def splitting(*args, **kwargs):
            if not depth[0]:
                counts["assume_split outside analyze_plan"] += 1
            return split(*args, **kwargs)

        _patch_everywhere(monkeypatch, analyze, analyzing)
        monkeypatch.setattr(
            repro.analysis.domain.AbstractState, "assume_split", splitting
        )
        return counts

    @pytest.mark.parametrize("rewritten", [True, False])
    def test_optimize_plan_analyses_its_input_once(
        self, monkeypatch, schema, query, rewritten
    ):
        cases = {case.name: case.plan for case in dataflow_mutations(query)}
        plan = (
            cases["infeasible-split"] if rewritten else canonical_conditional_plan(query)
        )
        counts = self._counters(monkeypatch)
        optimized = optimize_plan(plan, schema, query=query)
        assert (optimized != plan) == rewritten
        # The input's one pass feeds the rewrite and the gate's view of
        # the input; only a changed candidate is analysed again.
        assert counts == Counter(analyze_plan=2 if rewritten else 1)


class TestSharedTolerance:
    def _report(self, schema, query, distribution, drift: float):
        plan = canonical_conditional_plan(query)
        honest = certify_plan(plan, distribution)
        assert honest.root_bound is not None
        root = honest.root_bound * (1.0 + drift)
        return verify_plan(
            plan,
            schema,
            query=query,
            distribution=distribution,
            claimed_cost=root,
            certificate=CostCertificate(
                bounds={**honest.bounds, "root": root}, source="test"
            ),
            tolerance=1e-3,
        )

    def test_small_drift_within_tolerance_is_clean(self, schema, query, distribution):
        report = self._report(schema, query, distribution, 1e-4)
        assert report.ok, report.format()
        assert not report.has("DF101") and not report.has("COST001")

    def test_large_drift_still_fires(self, schema, query, distribution):
        report = self._report(schema, query, distribution, 1e-2)
        assert report.has("DF101") and report.has("COST001")


class TestModelDeadBranches:
    @pytest.fixture
    def plan(self, schema, query):
        # Root split at 6: P(below) = 1, the above branch is dead.  Inside
        # it a split at 5: P(below) = 0, the below branch is dead.
        full = RangeVector.full(schema)
        below, above = full.split(0, 6)
        inner_below, inner_above = below.split(0, 5)
        return _split(
            schema,
            0,
            6,
            _split(
                schema,
                0,
                5,
                _conditional(schema, query, inner_below, [(1, 4)]),
                leaf_for(query, inner_above),
            ),
            _conditional(schema, query, above, [(2, 6)]),
        )

    def test_cost004_fires_on_both_dead_branches(self, schema, query, dead_model, plan):
        report = verify_plan(plan, schema, query=query, distribution=dead_model)
        dead = sorted(d.path for d in report.diagnostics if d.code == "COST004")
        assert dead == ["root/above", "root/below/below"]
        assert report.ok, report.format()

    def test_dead_subtrees_keep_their_bounds(self, schema, dead_model, plan):
        certificate = certify_plan(plan, dead_model)
        contexts = _contexts(plan, RangeVector.full(schema))
        nodes = dict(iter_plan_paths(plan))
        assert set(certificate.bounds) == set(nodes)
        for path, node in nodes.items():
            assert certificate.bounds[path].hex() == expected_cost(
                node, dead_model, ranges=contexts[path]
            ).hex(), path
        # A dead subtree still costs something per tuple reaching it.
        assert certificate.bounds["root/above"] > 0.0
        assert certificate.bounds["root"].hex() == expected_cost(plan, dead_model).hex()

    def test_dead_records_keep_zero_reach(self, dead_model, plan):
        records = repro.core.cost.cost_decomposition(plan, dead_model)
        for path, record in records.items():
            if path.startswith(("root/above", "root/below/below")):
                assert record.reach == 0.0 and record.cost == 0.0, path
                assert record.probability_below is None and not record.step_passes
                assert record.bound is not None and record.ranges is not None


class TestBrokenNodes:
    def _below(self, findings, broken: str) -> list[str]:
        return [d.path for d in findings if d.path.startswith(broken + "/")]

    def test_ghost_index_hides_its_subtree(self, schema, query):
        ghost = ConditionNode(
            attribute="ghost",
            attribute_index=len(schema) + 1,
            split_value=3,
            below=VerdictLeaf(verdict=True),
            above=SequentialNode(steps=()),
        )
        plan = _split(schema, 0, 3, VerdictLeaf(verdict=False), ghost)
        findings = check_tree(plan, schema, query=query)
        assert [(d.code, d.path) for d in findings] == [("STR002", "root/above")]

    def test_degenerate_split_hides_its_subtree(self, schema, query):
        plan = _split(schema, 0, 2, VerdictLeaf(verdict=True), VerdictLeaf(verdict=True))
        object.__setattr__(plan, "split_value", 1)  # as a decoded byte string may
        findings = check_tree(plan, schema, query=query)
        assert sorted(d.code for d in findings) == ["DF004"]
        assert self._below(findings, "root") == []

    def test_unreachable_split_hides_its_subtree(self, schema, query):
        repeated = _split(
            schema, 0, 5, VerdictLeaf(verdict=True), VerdictLeaf(verdict=True)
        )
        plan = _split(schema, 0, 5, repeated, VerdictLeaf(verdict=False))
        findings = check_tree(plan, schema, query=query)
        assert ("DF004", "root/below") in [(d.code, d.path) for d in findings]
        assert self._below(findings, "root/below") == []

    def test_broken_node_in_dead_subtree(self, schema, query, dead_model):
        # The below branch of a split at 5 is dead under the model, and
        # its inner split at 7 lies outside its context [1, 4].
        below = _split(schema, 0, 7, VerdictLeaf(verdict=True), VerdictLeaf(verdict=False))
        plan = _split(schema, 0, 5, below, leaf_for(query, RangeVector.full(schema)))
        with pytest.raises(PlanError, match="outside the reachable range"):
            certify_plan(plan, dead_model)
        # The monitor raises only for a broken node a tuple can reach; the
        # root has no bound, so its expected cost is the live records' sum.
        monitor = DriftMonitor(plan, dead_model)
        predictions = monitor.predictions
        assert set(predictions) == {path for path, _node in iter_plan_paths(plan)}
        assert predictions["root/below"].reach == 0.0
        assert predictions["root"].bound is None
        assert monitor.expected_cost == sum(r.cost for r in predictions.values())
        # Every tuple reads ``a`` at the root and goes above.
        assert monitor.expected_cost == pytest.approx(
            schema[0].cost
            + expected_cost(
                plan.above, dead_model, ranges=RangeVector.full(schema).split(0, 5)[1]
            )
        )
        report = verify_plan(plan, schema, query=query, distribution=dead_model)
        assert report.has("DF004") and not report.ok


class TestNarrowedContext:
    def test_rules_and_bounds_use_the_narrowed_root(self, schema, query, distribution):
        narrowed = RangeVector.full(schema).with_range(
            0, RangeVector.full(schema)[0].split_at(3)[1]
        )
        plan = _conditional(schema, query, narrowed, [(0, 5), (1, 4)])
        report = verify_plan(
            plan,
            schema,
            query=query,
            distribution=distribution,
            ranges=narrowed,
            claimed_cost=expected_cost(plan, distribution, ranges=narrowed),
            certificate=certify_plan(plan, distribution, ranges=narrowed),
        )
        assert report.ok, report.format()
        certificate = certify_plan(plan, distribution, ranges=narrowed)
        assert certificate.bounds["root"].hex() == expected_cost(
            plan, distribution, ranges=narrowed
        ).hex()
        # Splitting at the narrowed context's minimum decides nothing, and
        # re-reads an attribute the narrowed root counts as observed.
        edge = _split(schema, 0, 3, VerdictLeaf(verdict=False), plan)
        codes = {
            (d.code, d.path)
            for d in check_tree(edge, schema, query=query, ranges=narrowed)
        }
        assert codes == {("DF004", "root"), ("DF003", "root")}
        assert check_tree(edge, schema, query=query) == []


class TestBooleanQuery:
    @pytest.fixture
    def boolean(self, schema) -> BooleanQuery:
        return BooleanQuery(
            schema, Or(Leaf(RangePredicate("a", 3, 6)), Leaf(RangePredicate("b", 2, 5)))
        )

    def test_sequential_leaf_is_sem007(self, schema, query, boolean):
        plan = _split(
            schema,
            0,
            3,
            VerdictLeaf(verdict=False),
            leaf_for(query, RangeVector.full(schema).split(0, 3)[1]),
        )
        report = verify_plan(plan, schema, query=boolean)
        assert ("SEM007", "root/above") in [(d.code, d.path) for d in report.diagnostics]

    def test_exhaustive_verdict_plan_verifies_clean(self, schema, distribution, boolean):
        result = ExhaustivePlanner(distribution).plan(boolean)
        report = verify_plan(
            result.plan,
            schema,
            query=boolean,
            distribution=distribution,
            claimed_cost=result.expected_cost,
            certificate=result.certificate,
        )
        assert report.ok, report.format()
        leaves = [
            path
            for path, node in iter_plan_paths(result.plan)
            if isinstance(node, VerdictLeaf)
        ]
        assert leaves and all(
            not isinstance(node, SequentialNode)
            for _path, node in iter_plan_paths(result.plan)
        )
        flipped = _flip(result.plan, leaves[0])
        codes = [(d.code, d.path) for d in verify_plan(flipped, schema, query=boolean).diagnostics]
        assert ("SEM006", leaves[0]) in codes


def _flip(node, path: str, here: str = "root"):
    if here == path:
        assert isinstance(node, VerdictLeaf)
        return VerdictLeaf(verdict=not node.verdict)
    if isinstance(node, ConditionNode):
        return ConditionNode(
            attribute=node.attribute,
            attribute_index=node.attribute_index,
            split_value=node.split_value,
            below=_flip(node.below, path, here + "/below"),
            above=_flip(node.above, path, here + "/above"),
        )
    return node
