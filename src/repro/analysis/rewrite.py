"""The analysis-driven plan rewriter.

:func:`optimize_plan` shrinks a plan using only facts one
:func:`~repro.analysis.dataflow.analyze_plan` pass proves, so every
rewrite is behaviour-preserving: the optimized plan produces the same
verdict as the original on **every** tuple (not just in expectation)
and never acquires more than the original.  The rewrites:

- *dead-branch elimination* — a condition whose split the interval facts
  decide routes every tuple one way; splice in the live side and skip
  the (now pointless) test.  The live side's interval context is exactly
  the parent's, so no downstream fact changes.
- *identical-branch collapse* — both sides are the same subtree (the
  exhaustive DP produces such free-split ties), so the test decides
  nothing; keep one side.
- *predicate subsumption* — a sequential step the path facts prove
  always-true is dropped (its narrowing is already implied, so later
  facts are unchanged); a step proved always-false makes the whole leaf
  a FALSE verdict (every tuple reaching the leaf either dies earlier or
  dies there, and a cheaper death is still a death).
- *query subsumption* (only with a ``query``) — a subtree whose range
  context already decides the query is replaced by the verdict leaf.

The result is re-verified before return: if a rewrite would introduce
any verifier ERROR the original plan did not have, the rewriter falls
back to the unoptimized input — soundness is never traded for size.
The input's findings come from the same pass, so the gate analyses only
the candidate.
Without a ``schema`` only the structural rewrites run (this mode backs
:func:`repro.core.plan.simplify_plan`).
"""

from __future__ import annotations

from repro.analysis.dataflow import AnyQuery, PlanAnalysis, StepFacts, analyze_plan
from repro.core.attributes import Schema
from repro.core.plan import (
    ConditionNode,
    PlanNode,
    SequentialNode,
    VerdictLeaf,
)
from repro.core.predicates import Truth
from repro.core.ranges import RangeVector
from repro.verify.diagnostics import Severity
from repro.verify.rules import check_facts

__all__ = ["optimize_plan"]


def optimize_plan(
    plan: PlanNode,
    schema: Schema | None = None,
    query: AnyQuery | None = None,
    ranges: RangeVector | None = None,
) -> PlanNode:
    """Rewrite ``plan`` into an equivalent, never-larger plan.

    With a ``schema`` the interval-dataflow rewrites run (dead branches,
    decided steps); ``query`` additionally enables query subsumption;
    without a schema only the structural rewrites apply.  A changed plan
    is re-checked, and ``plan`` comes back unchanged when the rewrite
    would add a verifier ERROR the original lacked — which the rewrites
    never should, so the gate is pure insurance.
    """
    if schema is None:
        return _rewrite(plan, None, "root", subsume=False)
    analysis = analyze_plan(plan, schema, query=query, ranges=ranges)
    candidate = _rewrite(plan, analysis, "root", subsume=True)
    if candidate == plan:
        return plan
    if _adds_errors(candidate, analysis, ranges):
        if query is None:
            return plan
        # Retry without query subsumption before giving up entirely.
        candidate = _rewrite(plan, analysis, "root", subsume=False)
        if candidate == plan or _adds_errors(candidate, analysis, ranges):
            return plan
    return candidate


def _error_codes(analysis: PlanAnalysis) -> set[str]:
    return {
        finding.code
        for finding in check_facts(analysis)
        if finding.severity is Severity.ERROR
    }


def _adds_errors(
    candidate: PlanNode, original: PlanAnalysis, ranges: RangeVector | None
) -> bool:
    errors = _error_codes(
        analyze_plan(candidate, original.schema, query=original.query, ranges=ranges)
    )
    # A clean candidate passes whatever the original holds.
    return bool(errors) and not errors <= _error_codes(original)


def _rewrite(
    node: PlanNode, analysis: PlanAnalysis | None, path: str, subsume: bool
) -> PlanNode:
    # No facts without a schema or below a broken node: only the
    # structural rewrites apply there.
    facts = None if analysis is None else analysis.facts.get(path)
    if subsume and facts is not None:
        if facts.query_truth not in (None, Truth.UNDETERMINED):
            return VerdictLeaf(verdict=facts.query_truth is Truth.TRUE)
    if isinstance(node, ConditionNode):
        return _rewrite_condition(node, analysis, path, subsume)
    if isinstance(node, SequentialNode):
        return _rewrite_sequential(node, None if facts is None else facts.steps)
    return node


def _rewrite_condition(
    node: ConditionNode, analysis: PlanAnalysis | None, path: str, subsume: bool
) -> PlanNode:
    below_path, above_path = path + "/below", path + "/above"
    if analysis is not None and below_path in analysis.facts:
        # A side no tuple reaches: every tuple routes the other way, and
        # the live side's interval context equals this node's.
        if not analysis.facts[below_path].reachable:
            return _rewrite(node.above, analysis, above_path, subsume)
        if not analysis.facts[above_path].reachable:
            return _rewrite(node.below, analysis, below_path, subsume)
    below = _rewrite(node.below, analysis, below_path, subsume)
    above = _rewrite(node.above, analysis, above_path, subsume)
    if below == above:
        return below
    if below is node.below and above is node.above:
        return node
    return ConditionNode(
        attribute=node.attribute,
        attribute_index=node.attribute_index,
        split_value=node.split_value,
        below=below,
        above=above,
    )


def _rewrite_sequential(
    node: SequentialNode, steps: tuple[StepFacts, ...] | None
) -> PlanNode:
    kept = []
    for position, step in enumerate(node.steps):
        truth = None if steps is None else steps[position].truth
        if truth is None:
            # Out-of-schema step (or no facts): keep it and everything after.
            kept.extend(node.steps[position:])
            break
        if truth is Truth.TRUE:
            continue  # implied by the path facts: narrowing is a no-op
        if truth is Truth.FALSE:
            # Tuples failing an earlier kept step die there; the rest die
            # here.  Either way the leaf's verdict is FALSE for every
            # tuple, and skipping the acquisitions only cheapens it.
            return VerdictLeaf(verdict=False)
        kept.append(step)
    if not kept:
        return VerdictLeaf(verdict=True)
    if len(kept) == len(node.steps):
        return node
    return SequentialNode(steps=tuple(kept))
