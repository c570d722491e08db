"""The walker's per-leaf projection derivation, kept as a reference arm.

:func:`reference_dataset_execution` is
:func:`~repro.core.cost.dataset_execution` as it stood before a prepared
statement carried its :func:`~repro.core.cost.projection_charges` table:
at every reached leaf it rebuilt the leaf's acquired set (a
``frozenset.union`` over a sequential leaf's steps), listed the unread
SELECT indices and summed their schema costs.  Observer events and the
``reads`` matrix are left out; they never depended on the SELECT list.
On any plan, SELECT list and readings the two walkers must return equal
costs, verdicts and projection charges, float for float.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.attributes import Schema
from repro.core.cost import DatasetExecution, predicate_mask
from repro.core.cost_models import AcquisitionCostModel
from repro.core.plan import ConditionNode, PlanNode, SequentialNode, VerdictLeaf
from repro.exceptions import PlanError


def reference_dataset_execution(
    plan: PlanNode,
    data: np.ndarray,
    schema: Schema,
    select: Sequence[int],
    cost_model: AcquisitionCostModel | None = None,
) -> DatasetExecution:
    matrix = np.asarray(data)
    attribute_costs = schema.costs
    row_costs = np.zeros(matrix.shape[0], dtype=np.float64)
    verdicts = np.zeros(matrix.shape[0], dtype=bool)
    projection = np.zeros(matrix.shape[0])

    def charge(index: int, acquired: frozenset[int] | set[int]) -> float:
        if cost_model is None:
            return attribute_costs[index]
        return cost_model.cost(index, acquired)

    def project(rows: np.ndarray, acquired: frozenset[int]) -> None:
        unread = [index for index in select if index not in acquired]
        if unread:
            projection[rows] = sum(attribute_costs[index] for index in unread)

    def walk(
        node: PlanNode, rows: np.ndarray, acquired: frozenset[int], paid: float
    ) -> None:
        if rows.size == 0:
            return
        if isinstance(node, VerdictLeaf):
            if paid:
                row_costs[rows] = paid
            if node.verdict:
                verdicts[rows] = True
            project(rows, acquired)
            return
        if isinstance(node, ConditionNode):
            index = node.attribute_index
            if index not in acquired:
                paid += charge(index, acquired)
                acquired = acquired | {index}
            below = matrix[:, index][rows] < node.split_value
            walk(node.below, rows.compress(below), acquired, paid)
            walk(node.above, rows.compress(~below), acquired, paid)
            return
        if isinstance(node, SequentialNode):
            project(rows, acquired.union(step.attribute_index for step in node.steps))
            alive = rows
            mutable_acquired = set(acquired)
            for position, step in enumerate(node.steps):
                if alive.size == 0:
                    break
                index = step.attribute_index
                charged = index not in mutable_acquired
                if charged:
                    paid += charge(index, mutable_acquired)
                    mutable_acquired.add(index)
                if paid and (charged or position == 0):
                    row_costs[alive] = paid
                satisfied = predicate_mask(step.predicate, matrix[:, index][alive])
                alive = alive.compress(satisfied)
            if paid and not node.steps:
                row_costs[rows] = paid
            verdicts[alive] = True
            return
        raise PlanError(f"unknown plan node type {type(node).__name__}")

    walk(plan, np.arange(matrix.shape[0]), frozenset(), 0.0)
    return DatasetExecution(costs=row_costs, verdicts=verdicts, projection=projection)
