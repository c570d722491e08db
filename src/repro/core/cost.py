"""Plan cost models.

Implements the paper's three cost quantities plus the Section 2.4 extension:

- :func:`dataset_execution` / :func:`empirical_cost` — Equation 1 on every
  row of a dataset, and its mean, Equation 4: the dataset-approximated
  expected cost (and, as a byproduct, the plan's verdict on every row —
  used to verify plans never change query answers).
- :func:`cost_decomposition` — Equation 3: the model-expected cost under
  any :class:`~repro.probability.base.Distribution`, computed by one walk
  over the plan tree that tracks the subproblem ranges each branch
  implies, and broken into one :class:`NodeCostContribution` per plan
  node (keyed by the verifier's node paths): each node's reach-weighted
  share and its subtree's conditional cost, over zero-reach subtrees
  too.  The verifier's cost and certificate rules, the cost certificate
  (:func:`repro.analysis.certify_plan`), EXPLAIN
  (:func:`repro.core.analysis.annotate_plan`) and the drift monitor's
  predictions (:class:`repro.obs.drift.DriftMonitor`, which
  ``repro profile`` prints) all read this one walk.
- :func:`expected_cost` — the scalar: the walk's root cost, which the
  planners price sequential leaves with.
- :func:`combined_objective` — Section 2.4: ``C(P) + alpha * zeta(P)``,
  folding plan-dissemination cost into the optimization target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

import numpy as np

from repro.core.attributes import Schema
from repro.core.cost_models import AcquisitionCostModel
from repro.core.plan import (
    ConditionNode,
    PlanNode,
    SequentialNode,
    VerdictLeaf,
)
from repro.core.predicates import Predicate
from repro.core.ranges import RangeVector
from repro.exceptions import PlanError
from repro.probability.base import Distribution

__all__ = [
    "dataset_execution",
    "projection_charges",
    "empirical_cost",
    "expected_cost",
    "cost_decomposition",
    "root_bound",
    "condition_bound",
    "acquisition_charge",
    "NodeCostContribution",
    "combined_objective",
    "DatasetExecution",
    "ExecutionObserver",
    "predicate_mask",
]


class ExecutionObserver(Protocol):
    """Receives batched node-visit events from :func:`dataset_execution`.

    Node paths follow the verifier's addressing convention
    (:mod:`repro.verify.paths`): ``root``, ``root/below``, ``root/above``
    and so on, so profile rows join directly against static diagnostics.
    ``acquired`` flags whether the node's attribute was read (and
    charged) for the visiting rows — the acquired-so-far set is fully
    determined by the root-to-node path, so it is uniform across a
    batch.  The observer argument defaults to ``None`` everywhere and
    the walker skips all bookkeeping in that case, keeping the disabled
    path free of overhead; :class:`repro.obs.PlanProfile` is the
    standard implementation.
    """

    def on_condition(
        self,
        path: str,
        node: ConditionNode,
        visits: int,
        below: int,
        acquired: bool,
    ) -> None:
        """A condition node routed ``visits`` rows, ``below`` of them down."""

    def on_sequential(
        self, path: str, node: SequentialNode, visits: int
    ) -> None:
        """A sequential leaf was entered by ``visits`` rows."""

    def on_step(
        self,
        path: str,
        node: SequentialNode,
        step_index: int,
        evaluated: int,
        passed: int,
        acquired: bool,
    ) -> None:
        """One sequential step evaluated ``evaluated`` rows, passing ``passed``."""

    def on_verdict(self, path: str, node: VerdictLeaf, visits: int) -> None:
        """A verdict leaf decided ``visits`` rows."""


def predicate_mask(predicate: Predicate, values: np.ndarray) -> np.ndarray:
    """Vectorized predicate evaluation over an array of attribute values."""
    low = getattr(predicate, "low", None)
    high = getattr(predicate, "high", None)
    if low is not None and high is not None:
        inside = (values >= low) & (values <= high)
        return inside if predicate.satisfied_by(low) else ~inside
    return np.fromiter(
        (predicate.satisfied_by(int(value)) for value in values),
        dtype=bool,
        count=values.size,
    )


@dataclass(frozen=True)
class DatasetExecution:
    """Per-row outcome of running a plan over a dataset.

    ``projection`` holds each row's unread SELECT cost when the walk was
    given ``leaf_charges``, else None.
    """

    costs: np.ndarray
    verdicts: np.ndarray
    projection: np.ndarray | None = None

    @property
    def mean_cost(self) -> float:
        """Equation 4: the empirical expected plan cost."""
        if self.costs.size == 0:
            return 0.0
        return float(self.costs.mean())

    @property
    def total_cost(self) -> float:
        return float(self.costs.sum())

    @property
    def pass_fraction(self) -> float:
        return float(self.verdicts.mean())


def dataset_execution(
    plan: PlanNode,
    data: np.ndarray,
    schema: Schema,
    cost_model: AcquisitionCostModel | None = None,
    observer: ExecutionObserver | None = None,
    reads: np.ndarray | None = None,
    leaf_charges: Mapping[str, float] | None = None,
) -> DatasetExecution:
    """Run a plan over every row of ``data`` with vectorized tree routing.

    Rows are pushed down the plan tree in batches, once: a condition node
    charges its attribute cost to every routed row that has not acquired
    the attribute on its path, then partitions the batch by the split
    test; a sequential node walks its predicate order with a shrinking
    "alive" set.  The charge a path has paid so far travels down the
    recursion as one float, summed in traversal order, and row costs are
    only ever set inside the leaf where the rows stop: on entering a
    verdict leaf, and at a sequential leaf's first step and each step
    that charges.
    The result carries per-row costs (Equation 1 applied to every tuple)
    and per-row verdicts.

    ``observer`` (when given) receives one event per visited node batch —
    see :class:`ExecutionObserver`; node batches with zero routed rows are
    skipped entirely and produce no events.

    ``reads`` (when given) is a rows-by-attributes boolean matrix that
    receives ``True`` wherever a row's walk acquired an attribute.

    ``leaf_charges`` (when given) is a SELECT list's
    :func:`projection_charges` table for ``plan``: every row that reaches
    a leaf is charged, in ``projection``, the leaf's entry.  Only matching
    rows are projected, and a matching row at a sequential leaf has read
    every step.
    """
    matrix = np.asarray(data)
    if matrix.ndim != 2 or matrix.shape[1] != len(schema):
        raise PlanError(
            f"data shape {matrix.shape} incompatible with schema of "
            f"{len(schema)} attributes"
        )
    attribute_costs = schema.costs
    row_costs = np.zeros(matrix.shape[0], dtype=np.float64)
    verdicts = np.zeros(matrix.shape[0], dtype=bool)
    projection = None if leaf_charges is None else np.zeros(matrix.shape[0])

    def charge(index: int, acquired: frozenset[int] | set[int]) -> float:
        if cost_model is None:
            return attribute_costs[index]
        return cost_model.cost(index, acquired)

    def project(rows: np.ndarray, path: str) -> None:
        unread = leaf_charges[path]
        if unread:
            projection[rows] = unread

    def walk(
        node: PlanNode,
        rows: np.ndarray,
        acquired: frozenset[int],
        paid: float,
        path: str,
    ) -> None:
        if rows.size == 0:
            return
        if isinstance(node, VerdictLeaf):
            if paid:
                row_costs[rows] = paid
            if node.verdict:
                verdicts[rows] = True
            if projection is not None:
                project(rows, path)
            if observer is not None:
                observer.on_verdict(path, node, int(rows.size))
            return
        if isinstance(node, ConditionNode):
            index = node.attribute_index
            charged = index not in acquired
            if charged:
                paid += charge(index, acquired)
                acquired = acquired | {index}
                if reads is not None:
                    reads[rows, index] = True
            below = matrix[:, index][rows] < node.split_value
            below_rows = rows.compress(below)
            if observer is not None:
                observer.on_condition(
                    path, node, int(rows.size), int(below_rows.size), charged
                )
            walk(node.below, below_rows, acquired, paid, path + "/below")
            walk(node.above, rows.compress(~below), acquired, paid, path + "/above")
            return
        if isinstance(node, SequentialNode):
            if observer is not None:
                observer.on_sequential(path, node, int(rows.size))
            if projection is not None:
                project(rows, path)
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
                    if reads is not None:
                        reads[alive, index] = True
                if paid and (charged or position == 0):
                    # Every row still alive stops here or later, at this
                    # charge unless a later step adds to it.
                    row_costs[alive] = paid
                satisfied = predicate_mask(step.predicate, matrix[:, index][alive])
                surviving = alive.compress(satisfied)
                if observer is not None:
                    observer.on_step(
                        path,
                        node,
                        position,
                        int(alive.size),
                        int(surviving.size),
                        charged,
                    )
                alive = surviving
            if paid and not node.steps:
                row_costs[rows] = paid
            verdicts[alive] = True
            return
        raise PlanError(f"unknown plan node type {type(node).__name__}")

    walk(plan, np.arange(matrix.shape[0]), frozenset(), 0.0, "root")
    return DatasetExecution(
        costs=row_costs, verdicts=verdicts, projection=projection
    )


def projection_charges(
    plan: PlanNode, schema: Schema, select: Sequence[int]
) -> dict[str, float]:
    """Each leaf's unread-SELECT charge, keyed by node path.

    ``select`` lists the attribute indices a query returns, duplicates
    included.  A leaf's entry sums, in ``select`` order, the schema cost
    of each one neither the leaf's path nor its steps read.
    """
    costs = schema.costs
    charges: dict[str, float] = {}

    def walk(node: PlanNode, acquired: frozenset[int], path: str) -> None:
        if isinstance(node, ConditionNode):
            acquired = acquired | {node.attribute_index}
            walk(node.below, acquired, path + "/below")
            walk(node.above, acquired, path + "/above")
            return
        if isinstance(node, SequentialNode):
            acquired = acquired.union(step.attribute_index for step in node.steps)
        elif not isinstance(node, VerdictLeaf):
            return  # the walker raises on reaching it
        charges[path] = sum(costs[index] for index in select if index not in acquired)

    walk(plan, frozenset(), "root")
    return charges


def empirical_cost(
    plan: PlanNode,
    data: np.ndarray,
    schema: Schema,
    cost_model: AcquisitionCostModel | None = None,
) -> float:
    """Equation 4: mean traversal cost of ``plan`` over a dataset."""
    return dataset_execution(plan, data, schema, cost_model).mean_cost


def expected_cost(
    plan: PlanNode,
    distribution: Distribution,
    ranges: RangeVector | None = None,
    cost_model: AcquisitionCostModel | None = None,
) -> float:
    """Equation 3: model-expected cost of a plan.

    ``ranges`` carries the subproblem context reached so far (defaults to
    the full attribute space); condition nodes recurse with split ranges and
    branch probabilities from ``distribution``, and sequential leaves charge
    each step weighted by the probability that every earlier predicate in
    the order held.  This is the root ``bound`` of
    :func:`cost_decomposition`, the one Eq. 3 walk; raises
    :class:`~repro.exceptions.PlanError` when a node is structurally
    broken.
    """
    return root_bound(cost_decomposition(plan, distribution, ranges, cost_model))


@dataclass(frozen=True)
class NodeCostContribution:
    """One node's share of the Equation 3 expected-cost decomposition.

    ``reach`` is the probability a tuple entering the root reaches this
    node; ``cost`` is the node's reach-weighted contribution to the plan
    total, so summing ``cost`` over all records reproduces
    :func:`expected_cost`.  ``acquisition`` is the per-visit charge at a
    condition node (zero when the context already acquired the
    attribute).  ``probability_below`` is the raw model value for live
    condition nodes — it may fall outside ``[0, 1]`` when the model is
    inconsistent, which is exactly what the verifier's COST002 rule
    checks.  ``feasible`` is False when the node is structurally broken
    (attribute index out of range, split outside the reachable interval,
    unknown node type); ``detail`` then carries the reason.  ``is_leaf``
    marks records where the walk stopped: verdict/sequential leaves and
    broken nodes — their ``reach`` values partition the root context.
    Records inside zero-reach subtrees carry zero reach/cost and no
    probabilities, but still track ``ranges``, the node's range context,
    and ``bound``, the Eq. 3 cost of its subtree per tuple reaching it
    (what :func:`repro.analysis.certify_plan` certifies; the root's
    equals :func:`expected_cost`).  ``bound`` is None when the subtree
    holds a broken node; below one, ``ranges`` is None too.
    """

    path: str
    kind: str  # "condition" | "sequential" | "verdict" | "unknown"
    reach: float
    acquisition: float
    cost: float
    probability_below: float | None = None
    step_passes: tuple[float, ...] = ()
    step_costs: tuple[float, ...] = ()
    feasible: bool = True
    is_leaf: bool = True
    detail: str = ""
    bound: float | None = None
    ranges: RangeVector | None = None


def cost_decomposition(
    plan: PlanNode,
    distribution: Distribution,
    ranges: RangeVector | None = None,
    cost_model: AcquisitionCostModel | None = None,
) -> dict[str, NodeCostContribution]:
    """Per-node Equation 3 decomposition of ``plan`` under ``distribution``.

    Returns one record per plan node, keyed by the verifier's node-path
    convention (``root``, ``root/below``, ...), in pre-order.  The
    decomposition is exact: live-node ``cost`` values sum to the Eq. 3
    expectation, and leaf ``reach`` values sum to 1 for any plan whose
    splits partition the context.  The same walk assembles every
    subtree's conditional ``bound`` bottom-up — ``acquisition + p * below
    + (1 - p) * above``, leaving out a branch whose probability is 0 —
    so one call serves the verifier's cost rules, the cost certificate,
    the drift predictions and :func:`expected_cost`.  Unlike
    :func:`expected_cost` this never raises on a broken plan —
    infeasible splits and out-of-range indices yield ``feasible=False``
    records so verifier rules can turn them into diagnostics
    (:func:`root_bound` raises naming the first).
    """
    schema = distribution.schema
    context = ranges if ranges is not None else RangeVector.full(schema)
    # A condition record waits for its children's bounds; ``order`` keeps
    # the pre-order the result is returned in.
    order: list[str] = []
    records: dict[str, NodeCostContribution] = {}

    def walk(
        node: PlanNode, node_ranges: RangeVector | None, reach: float, path: str
    ) -> float | None:
        order.append(path)
        if reach <= 0.0:
            reach = 0.0  # a zero-reach subtree: only bounds are tracked
        if isinstance(node, VerdictLeaf):
            records[path] = NodeCostContribution(
                path=path, kind="verdict", reach=reach, acquisition=0.0,
                cost=0.0, bound=0.0, ranges=node_ranges,
            )
            return 0.0
        if isinstance(node, SequentialNode):
            record = _sequential_contribution(
                node, node_ranges, reach, path, schema, distribution, cost_model
            )
            records[path] = record
            return record.bound
        if not isinstance(node, ConditionNode):
            records[path] = NodeCostContribution(
                path=path, kind="unknown", reach=reach, acquisition=0.0, cost=0.0,
                feasible=False,
                detail=f"unknown plan node type {type(node).__name__}",
            )
            return None
        live = reach > 0.0
        detail = _split_defect(node, node_ranges, schema)
        if node_ranges is None or detail:
            # The walk stops at a live broken node; below a zero-reach
            # one it records the subtree with no context known.
            records[path] = NodeCostContribution(
                path=path, kind="condition", reach=reach, acquisition=0.0,
                cost=0.0, feasible=not detail, is_leaf=live, detail=detail,
            )
            if not live:
                walk(node.below, None, 0.0, path + "/below")
                walk(node.above, None, 0.0, path + "/above")
            return None
        index = node.attribute_index
        acquisition = acquisition_charge(index, node_ranges, schema, cost_model)
        probability = distribution.split_probability(
            index, node.split_value, node_ranges
        )
        below_ranges, above_ranges = node_ranges.split(index, node.split_value)
        below = walk(node.below, below_ranges, reach * probability, path + "/below")
        above = walk(
            node.above, above_ranges, reach * (1.0 - probability), path + "/above"
        )
        bound = None
        if below is not None and above is not None:
            bound = condition_bound(acquisition, probability, below, above)
        records[path] = NodeCostContribution(
            path=path, kind="condition", reach=reach,
            acquisition=acquisition if live else 0.0, cost=reach * acquisition,
            probability_below=probability if live else None, is_leaf=False,
            bound=bound, ranges=node_ranges,
        )
        return bound

    walk(plan, context, 1.0, "root")
    return {path: records[path] for path in order}


def root_bound(records: dict[str, NodeCostContribution]) -> float:
    """The plan's Eq. 3 cost from its decomposition ``records``.

    Raises :class:`~repro.exceptions.PlanError` naming the first broken
    node (in pre-order) when there is one, reachable or not.
    """
    bound = records["root"].bound
    if bound is None:
        raise PlanError(
            next(record.detail for record in records.values() if not record.feasible)
        )
    return bound


def condition_bound(
    acquisition: float, probability: float, below: float, above: float
) -> float:
    """A condition node's Eq. 3 bound from its children's bounds.

    ``acquisition + p * below + (1 - p) * above`` in this one operation
    order, leaving out a branch whose probability is 0; every producer
    of a subtree bound (the walk, the planners' certificates) sums here,
    so equal inputs give bit-equal bounds.
    """
    bound = acquisition
    if probability > 0.0:
        bound += probability * below
    if probability < 1.0:
        bound += (1.0 - probability) * above
    return bound


def acquisition_charge(
    index: int,
    ranges: RangeVector,
    schema: Schema,
    cost_model: AcquisitionCostModel | None = None,
) -> float:
    """What a condition node pays to read attribute ``index`` in ``ranges``."""
    if ranges.is_acquired(index):
        return 0.0
    if cost_model is None:
        return schema[index].cost
    return cost_model.cost(index, ranges.acquired_indices())


def _split_defect(
    node: ConditionNode, ranges: RangeVector | None, schema: Schema
) -> str:
    """Why ``node`` cannot split ``ranges`` (empty when it can, or when
    no context is known)."""
    index = node.attribute_index
    if not 0 <= index < len(schema):
        return (
            f"condition node attribute index {index} out of range for a "
            f"schema of {len(schema)} attributes"
        )
    if ranges is None:
        return ""
    interval = ranges[index]
    if not interval.low < node.split_value <= interval.high:
        return (
            f"plan splits {node.attribute!r} at {node.split_value} outside "
            f"the reachable range [{interval.low}, {interval.high}]"
        )
    return ""


def _sequential_contribution(
    node: SequentialNode,
    ranges: RangeVector | None,
    reach: float,
    path: str,
    schema: Schema,
    distribution: Distribution,
    cost_model: AcquisitionCostModel | None,
) -> NodeCostContribution:
    """A sequential leaf: each step charged to the survivors of the steps
    before it, as per-step pass probabilities and costs plus the leaf's
    bound."""
    if ranges is None:
        return NodeCostContribution(
            path=path, kind="sequential", reach=0.0, acquisition=0.0, cost=0.0,
            step_costs=tuple(0.0 for _ in node.steps),
        )
    conditioner = distribution.sequential_conditioner(ranges)
    acquired = set(ranges.acquired_indices())
    survival = 1.0
    total = 0.0
    passes: list[float] = []
    costs: list[float] = []
    detail = ""
    for step in node.steps:
        index = step.attribute_index
        if not 0 <= index < len(schema):
            detail = (
                f"sequential step attribute index {index} out of range "
                f"for a schema of {len(schema)} attributes"
            )
            costs.extend(0.0 for _ in range(len(node.steps) - len(costs)))
            break
        if survival > 0.0 and index not in acquired:
            if cost_model is None:
                charge = schema[index].cost
            else:
                charge = cost_model.cost(index, acquired)
            total += survival * charge
            costs.append(reach * survival * charge)
        else:
            costs.append(0.0)
        acquired.add(index)
        if survival > 0.0:
            binding = (step.predicate, step.attribute_index)
            passed = conditioner.pass_probability(binding)
            conditioner.condition_on(binding)
        else:
            passed = 0.0
        passes.append(passed)
        survival *= passed
    return NodeCostContribution(
        path=path, kind="sequential", reach=reach, acquisition=0.0,
        cost=sum(costs), step_passes=tuple(passes) if reach > 0.0 else (),
        step_costs=tuple(costs), feasible=not detail, detail=detail,
        bound=None if detail else total, ranges=ranges,
    )


def combined_objective(
    plan: PlanNode, distribution: Distribution, alpha: float
) -> float:
    """Section 2.4: expected execution cost plus dissemination cost.

    ``alpha`` is (cost to transmit a byte) / (number of tuples processed in
    the query's lifetime) — it amortizes sending ``zeta(P)`` bytes of plan
    into the network over the query's life.
    """
    if alpha < 0:
        raise PlanError(f"alpha must be >= 0, got {alpha}")
    return expected_cost(plan, distribution) + alpha * plan.size_bytes()
