"""The rewriter's own abstract-state walk, kept as a reference arm.

:func:`reference_optimize_plan` is the rewriter as it stood before
:func:`~repro.analysis.rewrite.optimize_plan` read its facts from one
:func:`~repro.analysis.dataflow.analyze_plan` pass: it threads its own
:class:`~repro.analysis.domain.AbstractState` down the tree
(``assume_split``, ``truth_of``, ``assume_pass``, ``truth_under``) and
gates the candidate by re-checking both plans with ``check_tree``.  On
any input the two must return equal plans.
"""

from __future__ import annotations

from repro.analysis.dataflow import AnyQuery
from repro.analysis.domain import AbstractState
from repro.core.attributes import Schema
from repro.core.plan import ConditionNode, PlanNode, SequentialNode, VerdictLeaf
from repro.core.predicates import Truth
from repro.core.ranges import RangeVector
from repro.verify.diagnostics import Severity
from repro.verify.rules import check_tree


def reference_optimize_plan(
    plan: PlanNode,
    schema: Schema | None = None,
    query: AnyQuery | None = None,
    ranges: RangeVector | None = None,
) -> PlanNode:
    if schema is None:
        return _rewrite(plan, None, None, None)
    state = AbstractState.top(schema, ranges)
    candidate = _rewrite(plan, state, schema, query)
    if candidate == plan:
        return plan
    if not _no_new_errors(plan, candidate, schema, query, ranges):
        if query is None:
            return plan
        # Retry without query subsumption before giving up entirely.
        candidate = _rewrite(plan, state, schema, None)
        if candidate == plan or not _no_new_errors(
            plan, candidate, schema, query, ranges
        ):
            return plan
    return candidate


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

    errors = error_codes(candidate)
    return not errors or errors <= error_codes(original)


def _rewrite(
    node: PlanNode,
    state: AbstractState | None,
    schema: Schema | None,
    query: AnyQuery | None,
) -> PlanNode:
    if query is not None and state is not None and state.ranges is not None:
        truth = query.truth_under(state.ranges)
        if truth is not Truth.UNDETERMINED:
            return VerdictLeaf(verdict=truth is Truth.TRUE)
    if isinstance(node, ConditionNode):
        return _rewrite_condition(node, state, schema, query)
    if isinstance(node, SequentialNode):
        return _rewrite_sequential(node, state, schema)
    return node


def _rewrite_condition(
    node: ConditionNode,
    state: AbstractState | None,
    schema: Schema | None,
    query: AnyQuery | None,
) -> PlanNode:
    index = node.attribute_index
    if (
        state is not None
        and state.feasible
        and schema is not None
        and 0 <= index < len(schema)
    ):
        below_state, above_state = state.assume_split(index, node.split_value)
        if not below_state.feasible:
            return _rewrite(node.above, state, schema, query)
        if not above_state.feasible:
            return _rewrite(node.below, state, schema, query)
    else:
        below_state = above_state = None if state is None else AbstractState.bottom()
    below = _rewrite(node.below, below_state, schema, query)
    above = _rewrite(node.above, above_state, schema, query)
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
    node: SequentialNode, state: AbstractState | None, schema: Schema | None
) -> PlanNode:
    if state is None or not state.feasible or schema is None:
        if not node.steps:
            return VerdictLeaf(verdict=True)
        return node
    kept = []
    current = state
    analyzing = True
    for step in node.steps:
        index = step.attribute_index
        if not analyzing or not 0 <= index < len(schema):
            analyzing = False
            kept.append(step)
            continue
        truth = current.truth_of(step.predicate, index)
        if truth is Truth.TRUE:
            continue
        if truth is Truth.FALSE:
            return VerdictLeaf(verdict=False)
        kept.append(step)
        current = current.assume_pass(step.predicate, index)
    if not kept:
        return VerdictLeaf(verdict=True)
    if len(kept) == len(node.steps):
        return node
    return SequentialNode(steps=tuple(kept))
