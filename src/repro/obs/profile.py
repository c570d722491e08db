"""Per-node plan profiles: the runtime ledger behind ``repro profile``.

A :class:`PlanProfile` accumulates, per plan-tree node, the counts a
postmortem needs: how many tuples visited the node, which way each
condition split sent them, how often each sequential step passed, and
which attributes were actually acquired (and therefore paid for) there.
Nodes are keyed by the verifier's stable path convention
(:mod:`repro.verify.paths`), so a profile row joins directly against
static diagnostics and against the planner's Eq. 3 predictions
(:mod:`repro.obs.drift`).

Collection is pluggable: everything that executes plans — the vectorized
walker (:func:`repro.core.cost.dataset_execution`), the per-tuple
:class:`~repro.execution.executor.PlanExecutor`, the streaming executor,
and the serving layer — takes an optional sink implementing
:class:`~repro.core.cost.ExecutionObserver`.  When the sink is ``None``
(the default) the hot paths skip all bookkeeping, so disabled profiling
costs nothing beyond one ``is not None`` test per node batch; enabled
profiling costs a handful of dictionary updates per node *batch* (not
per tuple), which keeps the overhead bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.attributes import Schema
from repro.core.plan import ConditionNode, PlanNode, SequentialNode, VerdictLeaf
from repro.verify.paths import ROOT_PATH

__all__ = [
    "StepCounters",
    "NodeCounters",
    "PlanProfile",
]


@dataclass
class StepCounters:
    """Pass/fail tallies for one sequential step."""

    evaluated: int = 0
    passed: int = 0
    acquisitions: int = 0

    @property
    def pass_fraction(self) -> float:
        return self.passed / self.evaluated if self.evaluated else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "evaluated": self.evaluated,
            "passed": self.passed,
            "pass_fraction": round(self.pass_fraction, 6),
            "acquisitions": self.acquisitions,
        }


@dataclass
class NodeCounters:
    """Observed tallies for one plan node.

    ``acquisitions`` maps schema attribute index to the number of tuples
    for which this node was the *first* reader of that attribute on its
    root-to-leaf path — multiplying by the attribute cost recovers the
    node's share of the plan's acquisition bill.
    """

    kind: str = ""
    label: str = ""
    visits: int = 0
    below: int = 0
    above: int = 0
    steps: list[StepCounters] = field(default_factory=list)
    acquisitions: dict[int, int] = field(default_factory=dict)

    @property
    def below_fraction(self) -> float:
        return self.below / self.visits if self.visits else 0.0

    def observed_cost(self, schema: Schema) -> float:
        """Total acquisition cost charged at this node (schema flat costs)."""
        return sum(
            count * schema[index].cost
            for index, count in self.acquisitions.items()
        )

    def step(self, index: int) -> StepCounters:
        while len(self.steps) <= index:
            self.steps.append(StepCounters())
        return self.steps[index]

    def as_dict(self) -> dict[str, Any]:
        report: dict[str, Any] = {
            "kind": self.kind,
            "label": self.label,
            "visits": self.visits,
            "acquisitions": {
                str(index): count
                for index, count in sorted(self.acquisitions.items())
            },
        }
        if self.kind == "condition":
            report["below"] = self.below
            report["above"] = self.above
            report["below_fraction"] = round(self.below_fraction, 6)
        if self.steps:
            report["steps"] = [step.as_dict() for step in self.steps]
        return report


def _node_label(node: PlanNode) -> str:
    if isinstance(node, ConditionNode):
        return f"{node.attribute} < {node.split_value}"
    if isinstance(node, SequentialNode):
        chain = " -> ".join(step.predicate.describe() for step in node.steps)
        return f"seq: {chain}" if chain else "=> T"
    if isinstance(node, VerdictLeaf):
        return f"=> {'T' if node.verdict else 'F'}"
    return type(node).__name__


class PlanProfile:
    """Mutable per-node execution ledger for one plan.

    Implements the :class:`~repro.core.cost.ExecutionObserver` protocol,
    so an instance can be passed directly as the ``observer`` /
    ``profile_sink`` argument of any execution entry point.  Counts
    accumulate across calls until :meth:`reset`; profiles for the same
    plan can be :meth:`merge`-d (e.g. shard-per-thread collection).
    """

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._nodes: dict[str, NodeCounters] = {}
        self._tuples = 0

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def tuples(self) -> int:
        """Tuples that entered the plan root while this profile listened."""
        return self._tuples

    @property
    def nodes(self) -> dict[str, NodeCounters]:
        """Live view of the per-path counters (do not mutate)."""
        return self._nodes

    def counters(self, path: str) -> NodeCounters | None:
        return self._nodes.get(path)

    def _node(self, path: str, node: PlanNode, kind: str) -> NodeCounters:
        record = self._nodes.get(path)
        if record is None:
            record = self._nodes[path] = NodeCounters(
                kind=kind, label=_node_label(node)
            )
        return record

    # ------------------------------------------------------------------
    # ExecutionObserver protocol
    # ------------------------------------------------------------------

    def on_condition(
        self,
        path: str,
        node: ConditionNode,
        visits: int,
        below: int,
        acquired: bool,
    ) -> None:
        record = self._node(path, node, "condition")
        record.visits += visits
        record.below += below
        record.above += visits - below
        if acquired:
            index = node.attribute_index
            record.acquisitions[index] = (
                record.acquisitions.get(index, 0) + visits
            )
        if path == ROOT_PATH:
            self._tuples += visits

    def on_sequential(
        self, path: str, node: SequentialNode, visits: int
    ) -> None:
        record = self._node(path, node, "sequential")
        record.visits += visits
        if path == ROOT_PATH:
            self._tuples += visits

    def on_step(
        self,
        path: str,
        node: SequentialNode,
        step_index: int,
        evaluated: int,
        passed: int,
        acquired: bool,
    ) -> None:
        record = self._node(path, node, "sequential")
        step = record.step(step_index)
        step.evaluated += evaluated
        step.passed += passed
        if acquired:
            step.acquisitions += evaluated
            index = node.steps[step_index].attribute_index
            record.acquisitions[index] = (
                record.acquisitions.get(index, 0) + evaluated
            )

    def on_verdict(self, path: str, node: VerdictLeaf, visits: int) -> None:
        record = self._node(path, node, "verdict")
        record.visits += visits
        if path == ROOT_PATH:
            self._tuples += visits

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    def observed_cost(self) -> float:
        """Total acquisition cost metered across all recorded executions."""
        return sum(
            record.observed_cost(self._schema)
            for record in self._nodes.values()
        )

    def observed_mean_cost(self) -> float:
        """Equation 4 as actually observed: mean WHERE cost per tuple."""
        return self.observed_cost() / self._tuples if self._tuples else 0.0

    def attribute_acquisition_counts(self) -> dict[str, int]:
        """Tuples that acquired each attribute, summed over all nodes."""
        totals = {name: 0 for name in self._schema.names}
        for record in self._nodes.values():
            for index, count in record.acquisitions.items():
                totals[self._schema[index].name] += count
        return totals

    def merge(self, other: "PlanProfile") -> None:
        """Fold another profile of the same plan into this one."""
        self._tuples += other._tuples
        for path, record in other._nodes.items():
            mine = self._nodes.get(path)
            if mine is None:
                mine = self._nodes[path] = NodeCounters(
                    kind=record.kind, label=record.label
                )
            mine.visits += record.visits
            mine.below += record.below
            mine.above += record.above
            for position, step in enumerate(record.steps):
                target = mine.step(position)
                target.evaluated += step.evaluated
                target.passed += step.passed
                target.acquisitions += step.acquisitions
            for index, count in record.acquisitions.items():
                mine.acquisitions[index] = (
                    mine.acquisitions.get(index, 0) + count
                )

    def reset(self) -> None:
        self._nodes.clear()
        self._tuples = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "tuples": self._tuples,
            "observed_mean_cost": round(self.observed_mean_cost(), 6),
            "nodes": {
                path: record.as_dict()
                for path, record in sorted(self._nodes.items())
            },
        }

