"""Equation 1 on one tuple: the per-row reference oracle.

:func:`traversal_cost` runs a plan on a single tuple through
:meth:`~repro.core.plan.PlanNode.evaluate` and sums the cost of every
first read along the tuple's root-to-leaf path.  The vectorized walker
(:func:`repro.core.cost.dataset_execution`) and the scalar executors are
tested against it row by row.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.attributes import Schema
from repro.core.cost_models import AcquisitionCostModel
from repro.core.plan import PlanNode


def traversal_cost(
    plan: PlanNode,
    values: Sequence[int],
    schema: Schema,
    cost_model: AcquisitionCostModel | None = None,
) -> float:
    """Equation 1: acquisition cost of running ``plan`` on one tuple.

    ``cost_model`` generalizes the flat per-attribute costs to the
    Section 7 conditional-cost setting; acquisitions fire in traversal
    order, so the model sees the correct acquired-so-far set.
    """
    costs = schema.costs
    total = 0.0
    acquired: set[int] = set()

    def on_acquire(index: int) -> None:
        nonlocal total
        if cost_model is None:
            total += costs[index]
        else:
            total += cost_model.cost(index, acquired)
        acquired.add(index)

    plan.evaluate(values, on_acquire=on_acquire)
    return total
