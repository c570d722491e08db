"""Plan analysis and reporting.

Everything a practitioner needs to *understand* a generated conditional
plan, in the spirit of the paper's Section 6.1.1 detailed plan study:

- :func:`plan_summary` — structural statistics (splits, depth, bytes,
  attributes conditioned on, distinct leaf orders);
- :func:`annotate_plan` — Figure 3-style rendering with branch
  probabilities and reach probabilities from a probability model;
- :func:`attribute_acquisition_rates` — how often each attribute is
  actually acquired when the plan runs over a dataset (the quantity that
  maps directly to per-sensor energy);
- :func:`plan_to_dot` — Graphviz export for papers and debugging;
- :func:`compare_plans` — side-by-side cost/size/behaviour diff of two
  plans over the same dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.attributes import Schema
from repro.core.cost import dataset_execution
from repro.core.plan import (
    ConditionNode,
    PlanNode,
    SequentialNode,
    VerdictLeaf,
)
from repro.core.ranges import RangeVector
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

    Probabilities come from ``distribution`` conditioned on the ranges each
    branch implies — the numbers that appear on the edges of the paper's
    Figure 3.
    """
    lines: list[str] = []
    _annotate(
        plan,
        distribution,
        RangeVector.full(distribution.schema),
        reach=1.0,
        indent=indent,
        lines=lines,
    )
    return "\n".join(lines)


def _annotate(
    node: PlanNode,
    distribution: Distribution,
    ranges: RangeVector,
    reach: float,
    indent: str,
    lines: list[str],
) -> None:
    if isinstance(node, ConditionNode):
        probability_below = distribution.split_probability(
            node.attribute_index, node.split_value, ranges
        )
        below_ranges, above_ranges = ranges.split(
            node.attribute_index, node.split_value
        )
        lines.append(
            f"{indent}if {node.attribute} < {node.split_value}:  "
            f"[p={probability_below:.3f}, reach={reach:.3f}]"
        )
        _annotate(
            node.below,
            distribution,
            below_ranges,
            reach * probability_below,
            indent + "    ",
            lines,
        )
        lines.append(
            f"{indent}else ({node.attribute} >= {node.split_value}):  "
            f"[p={1 - probability_below:.3f}]"
        )
        _annotate(
            node.above,
            distribution,
            above_ranges,
            reach * (1.0 - probability_below),
            indent + "    ",
            lines,
        )
        return
    if isinstance(node, SequentialNode):
        if not node.steps:
            lines.append(f"{indent}=> T  [reach={reach:.3f}]")
            return
        survival = 1.0
        conditioner = distribution.sequential_conditioner(ranges)
        parts = []
        for step in node.steps:
            binding = (step.predicate, step.attribute_index)
            passed = conditioner.pass_probability(binding)
            parts.append(f"{step.predicate.describe()} [pass={passed:.2f}]")
            conditioner.condition_on(binding)
            survival *= passed
        lines.append(
            f"{indent}seq: "
            + " -> ".join(parts)
            + f"  [reach={reach:.3f}, all-pass={survival:.3f}]"
        )
        return
    if isinstance(node, VerdictLeaf):
        lines.append(
            f"{indent}=> {'T' if node.verdict else 'F'}  [reach={reach:.3f}]"
        )
        return
    raise PlanError(f"unknown plan node type {type(node).__name__}")


def attribute_acquisition_rates(
    plan: PlanNode, data: np.ndarray, schema: Schema
) -> dict[str, float]:
    """Fraction of tuples for which the plan acquires each attribute.

    The per-attribute analogue of Equation 4: multiplying each rate by the
    attribute's cost and summing recovers the plan's empirical cost.
    """
    matrix = np.asarray(data)
    counts = {name: 0 for name in schema.names}

    def walk(node: PlanNode, rows: np.ndarray, acquired: frozenset[int]) -> None:
        if rows.size == 0 or isinstance(node, VerdictLeaf):
            return
        if isinstance(node, ConditionNode):
            index = node.attribute_index
            if index not in acquired:
                counts[schema[index].name] += int(rows.size)
                acquired = acquired | {index}
            column = matrix[rows, index]
            below = column < node.split_value
            walk(node.below, rows[below], acquired)
            walk(node.above, rows[~below], acquired)
            return
        if isinstance(node, SequentialNode):
            from repro.core.cost import predicate_mask

            alive = rows
            local = set(acquired)
            for step in node.steps:
                if alive.size == 0:
                    break
                if step.attribute_index not in local:
                    counts[schema[step.attribute_index].name] += int(alive.size)
                    local.add(step.attribute_index)
                satisfied = predicate_mask(
                    step.predicate, matrix[alive, step.attribute_index]
                )
                alive = alive[satisfied]
            return
        raise PlanError(f"unknown plan node type {type(node).__name__}")

    walk(plan, np.arange(matrix.shape[0]), frozenset())
    total = max(matrix.shape[0], 1)
    return {name: count / total for name, count in counts.items()}


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
