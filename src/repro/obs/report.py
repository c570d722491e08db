"""EXPLAIN-ANALYZE-style profile reports: the body of ``repro profile``.

Combines three sources into one annotated plan tree:

- the plan structure itself;
- the planner's per-node Eq. 3 predictions: the records of
  :func:`repro.core.cost.cost_decomposition`, as
  :attr:`repro.obs.drift.DriftMonitor.predictions` holds them;
- a :class:`~repro.obs.profile.PlanProfile` of what actually happened.

Every line shows predicted-vs-observed side by side — reach and split
probabilities, step pass fractions, per-node cost per root tuple — and
cells whose chi-square drift term exceeds the monitor's threshold are
flagged ``<< DRIFT``.
"""

from __future__ import annotations

from typing import Any

from repro.core.analysis import _fmt
from repro.core.cost import NodeCostContribution
from repro.core.plan import (
    ConditionNode,
    PlanNode,
    SequentialNode,
    VerdictLeaf,
)
from repro.exceptions import PlanError
from repro.obs.drift import DriftMonitor
from repro.obs.profile import NodeCounters, PlanProfile
from repro.probability.base import Distribution
from repro.verify.paths import ROOT_PATH, step_path

__all__ = ["profile_report"]


def _fraction(numerator: int, denominator: int) -> float | None:
    return numerator / denominator if denominator else None


class _ReportBuilder:
    def __init__(
        self,
        plan: PlanNode,
        distribution: Distribution,
        profile: PlanProfile,
        monitor: DriftMonitor,
    ) -> None:
        self.plan = plan
        self.profile = profile
        self.monitor = monitor
        self.predictions = monitor.predictions
        self.schema = distribution.schema
        self.tuples = profile.tuples
        # One assessment per report: it scores every cell once, and the
        # monitor's debounce latch sees one crossing.
        self.report = monitor.assess(profile)
        self.drift_terms = {cell.path: cell.term for cell in self.report.drifts}

    def flag(self, path: str) -> str:
        term = self.drift_terms.get(path)
        if term is not None and term > self.monitor.threshold:
            return f"  << DRIFT (term {term:.1f})"
        return ""

    def counters(self, path: str) -> NodeCounters | None:
        return self.profile.counters(path)

    def prediction(self, path: str) -> NodeCostContribution | None:
        return self.predictions.get(path)

    def observed_reach(self, path: str) -> float | None:
        counters = self.counters(path)
        if counters is None:
            return 0.0 if self.tuples else None
        return _fraction(counters.visits, self.tuples)

    def node_costs(self, path: str) -> tuple[float | None, float | None]:
        """(predicted, observed) cost per root tuple at this node."""
        prediction = self.prediction(path)
        predicted = prediction.cost if prediction is not None else None
        counters = self.counters(path)
        if counters is None:
            observed = 0.0 if self.tuples else None
        else:
            observed = (
                counters.observed_cost(self.schema) / self.tuples
                if self.tuples
                else None
            )
        return predicted, observed

    def as_dict(self) -> dict[str, Any]:
        nodes: dict[str, Any] = {}
        for path, prediction in self.predictions.items():
            counters = self.counters(path)
            cost_pred, cost_obs = self.node_costs(path)
            entry: dict[str, Any] = {
                "reach_predicted": round(prediction.reach, 6),
                "reach_observed": self.observed_reach(path),
                "cost_predicted": (
                    round(cost_pred, 6) if cost_pred is not None else None
                ),
                "cost_observed": (
                    round(cost_obs, 6) if cost_obs is not None else None
                ),
            }
            if prediction.probability_below is not None:
                entry["p_below_predicted"] = round(prediction.probability_below, 6)
                entry["p_below_observed"] = (
                    _fraction(counters.below, counters.visits)
                    if counters is not None
                    else None
                )
            if prediction.step_passes:
                entry["step_pass_predicted"] = [
                    round(value, 6) for value in prediction.step_passes
                ]
                entry["step_pass_observed"] = [
                    (
                        _fraction(tallies.passed, tallies.evaluated)
                        if counters is not None
                        else None
                    )
                    for tallies in (counters.steps if counters is not None else [])
                ]
            if counters is not None:
                entry["observed"] = counters.as_dict()
            nodes[path] = entry
        return {
            "drift": self.report.as_dict(),
            "tuples": self.tuples,
            "nodes": nodes,
        }

    # ------------------------------------------------------------------

    def header_lines(self) -> list[str]:
        report = self.report
        lines = [
            f"tuples profiled: {self.tuples}",
            (
                f"cost/tuple: predicted {report.predicted_cost:.3f} (Eq. 3)  "
                f"observed {report.observed_cost:.3f}  "
                f"ratio {_fmt(None if report.cost_ratio == float('inf') else report.cost_ratio, 3)}"
                + ("x" if report.cost_ratio != float("inf") else " (inf)")
            ),
            (
                f"drift score: {report.normalized:.2f} over {report.cells} "
                f"cells (threshold {self.monitor.threshold:g}) -> "
                + ("DRIFTED" if report.drifted else "ok")
            ),
        ]
        return lines

    def text(self) -> str:
        return "\n".join(self.header_lines() + [""] + self.tree_lines())

    def tree_lines(self) -> list[str]:
        lines: list[str] = []
        self._walk(self.plan, ROOT_PATH, "", lines)
        return lines

    def _walk(
        self, node: PlanNode, path: str, indent: str, lines: list[str]
    ) -> None:
        prediction = self.prediction(path)
        counters = self.counters(path)
        reach_pred = prediction.reach if prediction is not None else None
        reach_obs = self.observed_reach(path)
        visits = counters.visits if counters is not None else 0
        if isinstance(node, ConditionNode):
            p_pred = (
                prediction.probability_below if prediction is not None else None
            )
            p_obs = (
                _fraction(counters.below, counters.visits)
                if counters is not None
                else None
            )
            cost_pred, cost_obs = self.node_costs(path)
            lines.append(
                f"{indent}if {node.attribute} < {node.split_value}:  "
                f"[n={visits}  p_below pred={_fmt(p_pred)} obs={_fmt(p_obs)}  "
                f"cost/t pred={_fmt(cost_pred)} obs={_fmt(cost_obs)}]"
                + self.flag(path)
            )
            self._walk(node.below, path + "/below", indent + "    ", lines)
            lines.append(
                f"{indent}else ({node.attribute} >= {node.split_value}):"
            )
            self._walk(node.above, path + "/above", indent + "    ", lines)
            return
        if isinstance(node, SequentialNode):
            if not node.steps:
                lines.append(
                    f"{indent}=> T  [n={visits}  reach pred={_fmt(reach_pred)} "
                    f"obs={_fmt(reach_obs)}]"
                )
                return
            cost_pred, cost_obs = self.node_costs(path)
            lines.append(
                f"{indent}seq  [n={visits}  reach pred={_fmt(reach_pred)} "
                f"obs={_fmt(reach_obs)}  cost/t pred={_fmt(cost_pred)} "
                f"obs={_fmt(cost_obs)}]"
            )
            for position, step in enumerate(node.steps):
                pass_pred = (
                    prediction.step_passes[position]
                    if prediction is not None
                    and position < len(prediction.step_passes)
                    else None
                )
                if counters is not None and position < len(counters.steps):
                    tallies = counters.steps[position]
                    evaluated = tallies.evaluated
                    pass_obs = (
                        _fraction(tallies.passed, tallies.evaluated)
                    )
                else:
                    evaluated = 0
                    pass_obs = None
                lines.append(
                    f"{indent}    {step.predicate.describe()}  "
                    f"[n={evaluated}  pass pred={_fmt(pass_pred)} "
                    f"obs={_fmt(pass_obs)}]" + self.flag(step_path(path, position))
                )
            return
        if isinstance(node, VerdictLeaf):
            verdict = "T" if node.verdict else "F"
            lines.append(
                f"{indent}=> {verdict}  [n={visits}  "
                f"reach pred={_fmt(reach_pred)} obs={_fmt(reach_obs)}]"
            )
            return
        raise PlanError(f"unknown plan node type {type(node).__name__}")


def profile_report(
    plan: PlanNode,
    distribution: Distribution,
    profile: PlanProfile,
    *,
    expected: float | None = None,
    monitor: DriftMonitor | None = None,
) -> tuple[dict[str, Any], str]:
    """The report as a JSON-friendly dict and as the annotated
    predicted-vs-observed plan tree, both from one drift assessment, so
    the two always give the same verdict."""
    if monitor is None:
        monitor = DriftMonitor(plan, distribution, expected=expected)
    builder = _ReportBuilder(plan, distribution, profile, monitor)
    return builder.as_dict(), builder.text()
