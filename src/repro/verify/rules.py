"""Tree-level verification rules: structure, semantics, ranges, cost.

The structural, semantic and range rules are per-node checks over one
dataflow pass (:func:`repro.analysis.dataflow.analyze_plan`): each node's
:class:`~repro.analysis.dataflow.NodeFacts` carries its *range context*
— the :class:`~repro.core.ranges.RangeVector` subproblem implied by the
condition splits on the path from the root (Section 3.2) — and the
query's truth there.  The context is what makes the checks static: a
leaf is judged against what the splits above it *prove* about the
tuple, never by executing the plan.  A node the rules cannot look below
(``STR002``, or a split the context already decides, which ``DF004``
reports — a split below the domain minimum among them) hides its subtree
from these rules: nothing below it is reported.  The ``DF002``-``DF004`` rules
(:func:`repro.analysis.checks.check_dataflow`) run on the same pass, so
each proven fact has one code.

The semantic rules accept both query classes.  For a
:class:`~repro.core.query.ConjunctiveQuery` the leaf contract is exact:
a sequential leaf must test precisely the predicates still undetermined
in its context, and a verdict leaf must state the truth the context
proves.  For a :class:`~repro.core.boolean.BooleanQuery` sequential
leaves are rejected outright (fail-fast conjunction semantics do not
implement a general formula — the same restriction
:func:`~repro.planning.base.require_conjunctive` enforces at planning
time), while verdict leaves are still checked against ``truth_under``.

The cost rules read the per-node Equation 3 decomposition
(:func:`repro.core.cost.cost_decomposition` — the same walk behind the
cost certificate, EXPLAIN and the drift monitor's predictions):
probability-sanity checks run over its per-node records, and the summed
reach-weighted costs must agree with the root's conditional bound, as
must any claimed cost the planner reported.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.attributes import Schema
from repro.core.boolean import BooleanQuery
from repro.core.cost import NodeCostContribution, root_bound
from repro.core.plan import (
    ConditionNode,
    PlanNode,
    SequentialNode,
    VerdictLeaf,
)
from repro.core.predicates import Predicate, Truth
from repro.core.query import ConjunctiveQuery
from repro.core.ranges import RangeVector
from repro.verify.diagnostics import Diagnostic, make_diagnostic

if TYPE_CHECKING:
    from repro.analysis.dataflow import NodeFacts, PlanAnalysis

__all__ = ["check_tree", "check_facts", "check_cost", "DEFAULT_COST_TOLERANCE"]

AnyQuery = ConjunctiveQuery | BooleanQuery

# Relative tolerance for Eq. 3 cost comparisons (COST001 and DF101).
# Planner bookkeeping is float arithmetic over a different summation order
# than the recomputation, so exact equality is out; anything beyond this
# is a real drift.
DEFAULT_COST_TOLERANCE = 1e-6


def check_tree(
    plan: PlanNode,
    schema: Schema,
    query: AnyQuery | None = None,
    ranges: RangeVector | None = None,
) -> list[Diagnostic]:
    """Structural, range, dataflow and (with ``query``) semantic rules.

    One :func:`~repro.analysis.dataflow.analyze_plan` pass feeds
    :func:`check_facts`.  ``ranges`` narrows the root context for
    verifying subtrees; it defaults to the full attribute space.
    """
    # Imported lazily: repro.analysis imports this module.
    from repro.analysis.dataflow import analyze_plan

    return check_facts(analyze_plan(plan, schema, query=query, ranges=ranges))


def check_facts(analysis: "PlanAnalysis") -> list[Diagnostic]:
    """Every tree rule over one dataflow pass: the STR/SEM/RNG rules node
    by node (a broken or decided node hides its subtree), then the
    DF002-DF004 rules on every reachable node."""
    # Imported lazily: repro.analysis imports this module.
    from repro.analysis.checks import check_dataflow

    findings: list[Diagnostic] = []
    hidden: set[str] = set()
    for facts in analysis:
        if facts.path.rpartition("/")[0] in hidden or not _check_node(
            facts, analysis.schema, analysis.query, findings
        ):
            hidden.add(facts.path)
    findings.extend(check_dataflow(analysis.plan, analysis.schema, analysis=analysis))
    return findings


def _check_node(
    facts: "NodeFacts",
    schema: Schema,
    query: AnyQuery | None,
    findings: list[Diagnostic],
) -> bool:
    """Check one node; False when nothing below it may be reported."""
    node, path, ranges = facts.node, facts.path, facts.state.ranges
    # A node the rules reach has a feasible context: only a hidden
    # split produces an empty one.
    assert ranges is not None
    if isinstance(node, VerdictLeaf):
        if facts.query_truth is not None:  # a query is bound
            _check_verdict(node.verdict, facts.query_truth, path, findings)
        return True
    if isinstance(node, SequentialNode):
        _check_sequential(node, ranges, path, schema, query, findings)
        return True
    if not isinstance(node, ConditionNode):
        findings.append(
            make_diagnostic(
                "STR001", path, f"unknown plan node type {type(node).__name__}"
            )
        )
        return True
    index = node.attribute_index
    if not 0 <= index < len(schema):
        findings.append(
            make_diagnostic(
                "STR002",
                path,
                f"condition node attribute index {index} out of range "
                f"for a schema of {len(schema)} attributes",
                hint="plan was built against a different schema",
            )
        )
        return False
    attribute = schema[index]
    if node.attribute != attribute.name:
        findings.append(
            make_diagnostic(
                "STR003",
                path,
                f"condition node names {node.attribute!r} but index "
                f"{index} is {attribute.name!r}",
            )
        )
    interval = ranges[index]
    if not interval.low < node.split_value <= interval.high:
        # Decided: DF004, which also covers a split below the 1-based
        # domain minimum.
        return False
    if facts.query_truth not in (None, Truth.UNDETERMINED):
        findings.append(
            make_diagnostic(
                "RNG002",
                path,
                f"context already decides the query; splitting on "
                f"{attribute.name} acquires data for nothing",
                hint="replace the subtree with a verdict leaf",
            )
        )
    return True


def _check_verdict(
    verdict: bool,
    truth: Truth,
    path: str,
    findings: list[Diagnostic],
) -> None:
    if truth is Truth.UNDETERMINED:
        findings.append(
            make_diagnostic(
                "SEM005",
                path,
                f"verdict {verdict} is not justified: the range context "
                "leaves the query undetermined",
                hint="the leaf must still evaluate the open predicates",
            )
        )
    elif (truth is Truth.TRUE) != verdict:
        findings.append(
            make_diagnostic(
                "SEM006",
                path,
                f"verdict {verdict} contradicts the range context, which "
                f"proves the query {truth.value.upper()}",
                hint="flipped verdict: the plan answers the wrong way",
            )
        )


def _check_sequential(
    node: SequentialNode,
    ranges: RangeVector,
    path: str,
    schema: Schema,
    query: AnyQuery | None,
    findings: list[Diagnostic],
) -> None:
    conjunctive = isinstance(query, ConjunctiveQuery)
    if isinstance(query, BooleanQuery) and node.steps:
        findings.append(
            make_diagnostic(
                "SEM007",
                path,
                "sequential (fail-fast conjunction) leaf cannot implement "
                "a non-conjunctive query",
                hint="boolean formulas need condition-node resolution",
            )
        )
        return

    query_predicates: dict[int, Predicate] | None = None
    undetermined: dict[int, Predicate] = {}
    proven_false: set[int] = set()
    if conjunctive:
        assert isinstance(query, ConjunctiveQuery)
        query_predicates = {
            index: predicate
            for predicate, index in zip(query.predicates, query.attribute_indices)
        }
        for index, predicate in query_predicates.items():
            truth = predicate.truth_under(ranges[index])
            if truth is Truth.UNDETERMINED:
                undetermined[index] = predicate
            elif truth is Truth.FALSE:
                proven_false.add(index)

    seen: set[int] = set()
    tests_proven_false = False
    for position, step in enumerate(node.steps):
        step_path = f"{path}/steps[{position}]"
        index = step.attribute_index
        if not 0 <= index < len(schema):
            findings.append(
                make_diagnostic(
                    "STR002",
                    step_path,
                    f"sequential step attribute index {index} out of range "
                    f"for a schema of {len(schema)} attributes",
                )
            )
            continue
        attribute = schema[index]
        predicate = step.predicate
        if predicate.attribute != attribute.name:
            findings.append(
                make_diagnostic(
                    "STR003",
                    step_path,
                    f"step predicate names {predicate.attribute!r} but "
                    f"index {index} is {attribute.name!r}",
                )
            )
        low = getattr(predicate, "low", None)
        high = getattr(predicate, "high", None)
        if low is not None and (low < 1 or high > attribute.domain_size):
            findings.append(
                make_diagnostic(
                    "STR004",
                    step_path,
                    f"step bounds [{low}, {high}] exceed domain "
                    f"[1, {attribute.domain_size}] of {attribute.name!r}",
                )
            )
        if index in seen:
            findings.append(
                make_diagnostic(
                    "SEM002",
                    step_path,
                    f"attribute {attribute.name!r} is tested more than once "
                    "in one leaf",
                    hint="the paper's problem class is one predicate per attribute",
                )
            )
            continue
        seen.add(index)
        if query_predicates is None:
            continue
        expected = query_predicates.get(index)
        if expected is None or expected != predicate:
            findings.append(
                make_diagnostic(
                    "SEM003",
                    step_path,
                    f"leaf evaluates {predicate.describe()!r}, which is "
                    "not one of the query's predicates",
                    hint="the plan answers a different query",
                )
            )
            continue
        if index in proven_false:
            tests_proven_false = True

    if query_predicates is None:
        return

    # A leaf that tests a predicate the context proves false always returns
    # False, which is exactly the query's truth there — any further gaps are
    # cost, not correctness.  Otherwise every still-open conjunct must appear.
    if tests_proven_false:
        return
    if proven_false:
        findings.append(
            make_diagnostic(
                "SEM006",
                path,
                "context proves the query FALSE but the leaf can still "
                "return TRUE (no step tests a failed conjunct)",
                hint="replace the leaf with a False verdict",
            )
        )
        return
    for index, predicate in undetermined.items():
        if index not in seen:
            findings.append(
                make_diagnostic(
                    "SEM001",
                    path,
                    f"dropped conjunct: {predicate.describe()!r} is "
                    "undetermined in this context but the leaf never tests it",
                    hint="the plan accepts tuples the query rejects",
                )
            )


def check_cost(
    decomposition: dict[str, NodeCostContribution],
    claimed_cost: float | None = None,
    tolerance: float = DEFAULT_COST_TOLERANCE,
) -> list[Diagnostic]:
    """Cost-conservation rules (Equation 3) over a plan's decomposition.

    Reads the per-node records of
    :func:`repro.core.cost.cost_decomposition`, checking that every
    split probability lies in ``[0, 1]`` (COST002), that leaf
    reach-probabilities partition the root context (COST003), and
    flagging model-dead branches (COST004).  The summed reach-weighted
    costs must agree with the root's conditional bound — a guard that
    the per-node ledger stays exact — and so must ``claimed_cost`` when
    given (COST001).  The verifier runs these rules only on plans the
    tree rules found structurally sound (no STR/RNG/DF004 finding); a broken
    node raises :class:`~repro.exceptions.PlanError`.
    """
    findings: list[Diagnostic] = []
    recomputed = 0.0
    leaf_mass = 0.0
    dead_branches = False
    for record in decomposition.values():
        recomputed += record.cost
        if record.is_leaf:
            # Verdict/sequential leaves plus structurally-broken nodes
            # (the latter are reported by check_tree, not here).
            leaf_mass += record.reach
            continue
        if record.reach <= 0.0 or record.probability_below is None:
            continue  # inside a dead subtree: the parent already flagged it
        probability = record.probability_below
        if probability < -tolerance or probability > 1.0 + tolerance:
            findings.append(
                make_diagnostic(
                    "COST002",
                    record.path,
                    f"split probability {probability!r} lies outside [0, 1]",
                    hint="the probability model is inconsistent",
                )
            )
        clamped = min(1.0, max(0.0, probability))
        for branch, branch_probability in (
            ("below", clamped),
            ("above", 1.0 - clamped),
        ):
            if branch_probability <= 0.0:
                dead_branches = True
                findings.append(
                    make_diagnostic(
                        "COST004",
                        f"{record.path}/{branch}",
                        f"branch is dead under the model "
                        f"(P = {branch_probability:.3g}); it only runs "
                        "if live data drifts from the statistics",
                    )
                )
    # Dead subtrees carry zero reach, so the reachable leaf mass must
    # still account for the whole context.
    if abs(leaf_mass - 1.0) > max(tolerance, 1e-9) and not dead_branches:
        findings.append(
            make_diagnostic(
                "COST003",
                "root",
                f"leaf reach probabilities sum to {leaf_mass!r}, not 1: "
                "the splits do not partition the context",
            )
        )

    independent = root_bound(decomposition)
    if not _close(recomputed, independent, tolerance):
        findings.append(
            make_diagnostic(
                "COST001",
                "root",
                f"independent Eq. 3 recomputations diverge: "
                f"{recomputed!r} (verifier) vs {independent!r} (core)",
                hint="cost conservation is violated at some condition node",
            )
        )
    if claimed_cost is not None and not _close(claimed_cost, independent, tolerance):
        findings.append(
            make_diagnostic(
                "COST001",
                "root",
                f"claimed expected cost {claimed_cost!r} disagrees with "
                f"the Eq. 3 recomputation {independent!r}",
                hint="the planner's cost bookkeeping drifted from the plan",
            )
        )
    return findings


def _close(a: float, b: float, tolerance: float) -> bool:
    return abs(a - b) <= tolerance * max(1.0, abs(a), abs(b))
