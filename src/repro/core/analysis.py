"""Plan analysis and reporting.

Everything a practitioner needs to *understand* a generated conditional
plan, in the spirit of the paper's Section 6.1.1 detailed plan study:

- :func:`plan_summary` — structural statistics (splits, depth, bytes,
  attributes conditioned on, distinct leaf orders);
- :func:`annotate_plan` — Figure 3-style rendering with branch
  probabilities and reach probabilities: the plan's Eq. 3 records
  (:func:`~repro.core.cost.cost_decomposition`);
- :func:`attribute_acquisition_rates` — how often each attribute is
  actually acquired when the plan runs over a dataset (the quantity that
  maps directly to per-sensor energy);
- :func:`plan_to_dot` — Graphviz export for papers and debugging;
- :func:`compare_plans` — side-by-side cost/size/behaviour diff of two
  plans over the same dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.attributes import Schema
from repro.core.cost import (
    NodeCostContribution,
    cost_decomposition,
    dataset_execution,
    root_bound,
)
from repro.core.plan import (
    ConditionNode,
    PlanNode,
    SequentialNode,
    VerdictLeaf,
)
from repro.exceptions import PlanError
from repro.probability.base import Distribution

__all__ = [
    "PlanSummary",
    "plan_summary",
    "annotate_plan",
    "attribute_acquisition_rates",
    "plan_to_dot",
    "PlanComparison",
    "compare_plans",
    "validate_plan",
]


@dataclass(frozen=True)
class PlanSummary:
    """Structural statistics of one plan tree."""

    nodes: int
    condition_nodes: int
    sequential_leaves: int
    verdict_leaves: int
    depth: int
    size_bytes: int
    conditioning_attributes: tuple[str, ...]
    distinct_leaf_orders: int

    def describe(self) -> str:
        attributes = ", ".join(self.conditioning_attributes) or "(none)"
        return (
            f"{self.nodes} nodes ({self.condition_nodes} splits, "
            f"{self.sequential_leaves} sequential leaves, "
            f"{self.verdict_leaves} verdict leaves), depth {self.depth}, "
            f"{self.size_bytes} bytes; conditions on: {attributes}; "
            f"{self.distinct_leaf_orders} distinct predicate orders"
        )


def plan_summary(plan: PlanNode) -> PlanSummary:
    """Collect structural statistics for a plan."""
    condition_nodes = 0
    sequential_leaves = 0
    verdict_leaves = 0
    conditioning: list[str] = []
    orders: set[tuple[str, ...]] = set()
    for node in plan.iter_nodes():
        if isinstance(node, ConditionNode):
            condition_nodes += 1
            if node.attribute not in conditioning:
                conditioning.append(node.attribute)
        elif isinstance(node, SequentialNode):
            sequential_leaves += 1
            if node.steps:
                orders.add(tuple(step.predicate.attribute for step in node.steps))
        elif isinstance(node, VerdictLeaf):
            verdict_leaves += 1
        else:
            raise PlanError(f"unknown plan node type {type(node).__name__}")
    return PlanSummary(
        nodes=plan.size_nodes(),
        condition_nodes=condition_nodes,
        sequential_leaves=sequential_leaves,
        verdict_leaves=verdict_leaves,
        depth=plan.depth(),
        size_bytes=plan.size_bytes(),
        conditioning_attributes=tuple(conditioning),
        distinct_leaf_orders=len(orders),
    )


def annotate_plan(
    plan: PlanNode, distribution: Distribution, indent: str = ""
) -> str:
    """Pretty-print a plan with branch and reach probabilities.

    The numbers are the Eq. 3 records of
    :func:`~repro.core.cost.cost_decomposition` under ``distribution`` —
    the ones on the edges of the paper's Figure 3, and the predictions
    ``repro profile`` prints.  A value the walk leaves undefined is
    printed as the record holds it: ``-`` for the split probability of
    a zero-reach condition and for the steps of a zero-reach leaf, and
    ``0.00`` for a step after an all-pass of 0.  Raises
    :class:`~repro.exceptions.PlanError` naming the first broken node.
    """
    records = cost_decomposition(plan, distribution)
    root_bound(records)  # raises on a broken node
    lines: list[str] = []
    _annotate(plan, records, "root", indent, lines)
    return "\n".join(lines)


def _fmt(value: float | None, digits: int = 3) -> str:
    """A figure as EXPLAIN and ``repro profile`` print it: ``-`` for None."""
    return "-" if value is None else f"{value:.{digits}f}"


def _annotate(
    node: PlanNode,
    records: dict[str, NodeCostContribution],
    path: str,
    indent: str,
    lines: list[str],
) -> None:
    record = records[path]
    reach = f"reach={record.reach:.3f}"
    if isinstance(node, ConditionNode):
        below = record.probability_below
        above = None if below is None else 1 - below
        lines.append(
            f"{indent}if {node.attribute} < {node.split_value}:  "
            f"[p={_fmt(below)}, {reach}]"
        )
        _annotate(node.below, records, path + "/below", indent + "    ", lines)
        lines.append(
            f"{indent}else ({node.attribute} >= {node.split_value}):  "
            f"[p={_fmt(above)}]"
        )
        _annotate(node.above, records, path + "/above", indent + "    ", lines)
    elif isinstance(node, SequentialNode):
        if not node.steps:
            lines.append(f"{indent}=> T  [{reach}]")
            return
        # A zero-reach leaf's record holds no pass probabilities.
        passes = record.step_passes or (None,) * len(node.steps)
        chain = " -> ".join(
            f"{step.predicate.describe()} [pass={_fmt(passed, 2)}]"
            for step, passed in zip(node.steps, passes)
        )
        survival = math.prod(record.step_passes) if record.step_passes else None
        lines.append(
            f"{indent}seq: {chain}  [{reach}, all-pass={_fmt(survival)}]"
        )
    else:
        verdict = "T" if node.verdict else "F"
        lines.append(f"{indent}=> {verdict}  [{reach}]")


def attribute_acquisition_rates(
    plan: PlanNode, data: np.ndarray, schema: Schema
) -> dict[str, float]:
    """Fraction of tuples for which the plan acquires each attribute.

    The per-attribute analogue of Equation 4: multiplying each rate by the
    attribute's cost and summing recovers the plan's empirical cost.  The
    rates are the column means of the walker's ``reads`` matrix
    (:func:`~repro.core.cost.dataset_execution`).
    """
    matrix = np.asarray(data)
    reads = np.zeros(matrix.shape, dtype=bool)
    dataset_execution(plan, matrix, schema, reads=reads)
    total = max(matrix.shape[0], 1)
    return {
        name: int(count) / total
        for name, count in zip(schema.names, reads.sum(axis=0))
    }


def plan_to_dot(plan: PlanNode, name: str = "plan") -> str:
    """Graphviz DOT rendering of a plan tree."""
    lines = [f"digraph {name} {{", "  node [shape=box, fontname=monospace];"]
    counter = [0]

    def emit(node: PlanNode) -> str:
        identifier = f"n{counter[0]}"
        counter[0] += 1
        if isinstance(node, ConditionNode):
            lines.append(
                f'  {identifier} [label="{node.attribute} >= {node.split_value}?",'
                " shape=diamond];"
            )
            below = emit(node.below)
            above = emit(node.above)
            lines.append(f'  {identifier} -> {below} [label="no"];')
            lines.append(f'  {identifier} -> {above} [label="yes"];')
        elif isinstance(node, SequentialNode):
            chain = (
                "\\n".join(step.predicate.describe() for step in node.steps)
                or "T"
            )
            lines.append(f'  {identifier} [label="{chain}"];')
        elif isinstance(node, VerdictLeaf):
            verdict = "T" if node.verdict else "F"
            lines.append(
                f'  {identifier} [label="{verdict}", shape=circle];'
            )
        else:
            raise PlanError(f"unknown plan node type {type(node).__name__}")
        return identifier

    emit(plan)
    lines.append("}")
    return "\n".join(lines)


def validate_plan(
    plan: PlanNode, schema: Schema, query=None
) -> list[str]:
    """Structural soundness check for a plan against a schema.

    Plans cross a trust boundary in the paper's architecture — they are
    deserialized on motes from bytes the basestation sent — so a deployed
    system must be able to reject malformed ones.  Returns a list of
    problem descriptions (empty = valid):

    - attribute indices out of schema range, or names disagreeing with the
      schema's name at that index;
    - split values outside ``[2, K_i]``, or outside the reachable range
      implied by ancestor splits (the dataflow rule ``DF004``: one branch
      is dead);
    - sequential-step predicate bounds outside the attribute's domain;
    - with ``query`` given: full semantic equivalence — predicates in
      leaves that are not the query's, dropped or duplicated conjuncts,
      verdict leaves unjustified by (or contradicting) their context.

    This is a thin wrapper over :func:`repro.verify.rules.check_tree`
    (the structural, semantic, range and dataflow rules over one
    interval pass) that keeps the historical string-list interface; use
    :func:`repro.verify.verify_plan` directly for structured diagnostics
    (error codes, severities, node paths) and the cost/bytecode rules.
    """
    from repro.verify.diagnostics import Severity
    from repro.verify.rules import check_tree

    return [
        finding.message
        for finding in check_tree(plan, schema, query=query)
        if finding.severity is Severity.ERROR
    ]


@dataclass(frozen=True)
class PlanComparison:
    """Behavioural and cost diff of two plans over the same dataset."""

    mean_cost_a: float
    mean_cost_b: float
    size_bytes_a: int
    size_bytes_b: int
    verdict_agreement: float
    cost_ratio: float

    def describe(self) -> str:
        return (
            f"cost {self.mean_cost_a:.2f} vs {self.mean_cost_b:.2f} "
            f"({self.cost_ratio:.2f}x), size {self.size_bytes_a} vs "
            f"{self.size_bytes_b} bytes, verdict agreement "
            f"{self.verdict_agreement:.4f}"
        )


def compare_plans(
    plan_a: PlanNode, plan_b: PlanNode, data: np.ndarray, schema: Schema
) -> PlanComparison:
    """Run two plans over the same rows and compare outcomes.

    ``verdict_agreement`` must be 1.0 whenever both plans answer the same
    query — the paper's correctness guarantee; anything less flags a bug.
    """
    outcome_a = dataset_execution(plan_a, data, schema)
    outcome_b = dataset_execution(plan_b, data, schema)
    mean_a = outcome_a.mean_cost
    mean_b = outcome_b.mean_cost
    return PlanComparison(
        mean_cost_a=mean_a,
        mean_cost_b=mean_b,
        size_bytes_a=plan_a.size_bytes(),
        size_bytes_b=plan_b.size_bytes(),
        verdict_agreement=float(
            np.mean(outcome_a.verdicts == outcome_b.verdicts)
        ),
        cost_ratio=mean_a / mean_b if mean_b > 0 else float("inf"),
    )
