"""The analysis-driven plan rewriter.

:func:`optimize_plan` shrinks a plan using only facts the abstract
interpretation proves, so every rewrite is behaviour-preserving: the
optimized plan produces the same verdict as the original on **every**
tuple (not just in expectation) and never acquires more than the
original.  The rewrites:

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
Without a ``schema`` only the structural rewrites run (this mode backs
:func:`repro.core.plan.simplify_plan`).
"""

from __future__ import annotations

from repro.analysis.dataflow import AnyQuery
from repro.analysis.domain import AbstractState
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
from repro.verify.rules import check_tree

__all__ = ["optimize_plan"]


def optimize_plan(
    plan: PlanNode,
    schema: Schema | None = None,
    query: AnyQuery | None = None,
    ranges: RangeVector | None = None,
    verify: bool = True,
) -> PlanNode:
    """Rewrite ``plan`` into an equivalent, never-larger plan.

    With a ``schema`` the interval-dataflow rewrites run (dead branches,
    decided steps); ``query`` additionally enables query subsumption;
    without a schema only the structural rewrites apply.  ``verify=True``
    (the default) re-checks the candidate and falls back to ``plan``
    when the rewrite would add a verifier ERROR the original lacked —
    which the rewrites never should, so the gate is pure insurance.
    """
    if schema is None:
        return _rewrite(plan, None, None)
    state = AbstractState.top(schema, ranges)
    candidate = _rewrite(plan, state, _Context(schema, query))
    if candidate == plan:
        return plan
    if verify and not _no_new_errors(plan, candidate, schema, query, ranges):
        if query is None:
            return plan
        # Retry without query subsumption before giving up entirely.
        candidate = _rewrite(plan, state, _Context(schema, None))
        if candidate == plan or not _no_new_errors(
            plan, candidate, schema, query, ranges
        ):
            return plan
    return candidate


class _Context:
    """Immutable per-run parameters threaded through the rewrite walk."""

    __slots__ = ("schema", "query")

    def __init__(self, schema: Schema, query: AnyQuery | None) -> None:
        self.schema = schema
        self.query = query


def _no_new_errors(
    original: PlanNode,
    candidate: PlanNode,
    schema: Schema,
    query: AnyQuery | None,
    ranges: RangeVector | None,
) -> bool:
    def error_codes(node: PlanNode) -> set[str]:
        return {
            finding.code
            for finding in check_tree(node, schema, query=query, ranges=ranges)
            if finding.severity is Severity.ERROR
        }

    # A clean candidate passes whatever the original holds.
    errors = error_codes(candidate)
    return not errors or errors <= error_codes(original)


def _rewrite(
    node: PlanNode, state: AbstractState | None, context: _Context | None
) -> PlanNode:
    if (
        context is not None
        and context.query is not None
        and state is not None
        and state.ranges is not None
    ):
        truth = context.query.truth_under(state.ranges)
        if truth is not Truth.UNDETERMINED:
            return VerdictLeaf(verdict=truth is Truth.TRUE)
    if isinstance(node, ConditionNode):
        return _rewrite_condition(node, state, context)
    if isinstance(node, SequentialNode):
        return _rewrite_sequential(node, state, context)
    return node


def _rewrite_condition(
    node: ConditionNode, state: AbstractState | None, context: _Context | None
) -> PlanNode:
    index = node.attribute_index
    analyzable = (
        state is not None
        and state.feasible
        and context is not None
        and 0 <= index < len(context.schema)
    )
    if analyzable:
        assert state is not None
        below_state, above_state = state.assume_split(index, node.split_value)
        if not below_state.feasible:
            # Every tuple routes above; the above context equals the
            # parent's (same interval, and the read never happens).
            return _rewrite(node.above, state, context)
        if not above_state.feasible:
            return _rewrite(node.below, state, context)
    else:
        below_state = above_state = None if state is None else AbstractState.bottom()
    below = _rewrite(node.below, below_state, context)
    above = _rewrite(node.above, above_state, context)
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
    node: SequentialNode, state: AbstractState | None, context: _Context | None
) -> PlanNode:
    if state is None or not state.feasible or context is None:
        if not node.steps:
            return VerdictLeaf(verdict=True)
        return node
    kept = []
    current = state
    analyzing = True
    for step in node.steps:
        index = step.attribute_index
        if not analyzing or not 0 <= index < len(context.schema):
            # Out-of-schema step: no facts — keep it and everything after.
            analyzing = False
            kept.append(step)
            continue
        truth = current.truth_of(step.predicate, index)
        if truth is Truth.TRUE:
            continue  # implied by the path facts: narrowing is a no-op
        if truth is Truth.FALSE:
            # Tuples failing an earlier kept step die there; the rest die
            # here.  Either way the leaf's verdict is FALSE for every
            # tuple, and skipping the acquisitions only cheapens it.
            return VerdictLeaf(verdict=False)
        kept.append(step)
        current = current.assume_pass(step.predicate, index)
    if not kept:
        return VerdictLeaf(verdict=True)
    if len(kept) == len(node.steps):
        return node
    return SequentialNode(steps=tuple(kept))
