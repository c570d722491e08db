"""Predicted-vs-observed cost-drift accounting.

The planner optimizes Equation 3 — an expectation under the statistics it
was trained on.  When the live tuple distribution moves, the first
symptoms are per-node: a split that was supposed to send 80% of tuples
down the cheap branch starts sending 40%, a sequential step that used to
kill most tuples stops killing them.  This module turns a
:class:`~repro.obs.profile.PlanProfile` into exactly that comparison:

- the predictions are the plan's Eq. 3 records
  (:func:`repro.core.cost.cost_decomposition`): per node, keyed by the
  verifier's node paths, the reach probability, split probability,
  per-step pass probabilities and expected cost contribution.  The
  per-node cost contributions sum to ``expected_cost(plan,
  distribution)`` — the decomposition is exact.
- :class:`DriftMonitor` scores the divergence between those predictions
  and a profile's observed frequencies with a chi-square-style statistic,
  and reports the observed-vs-predicted cost ratio.

The drift score: every decision cell (a split's below-fraction, a step's
pass-fraction) with at least ``min_visits`` observations contributes
``n * (obs - p)^2 / (p * (1 - p))`` where ``p`` is the predicted
probability clamped to ``[1e-3, 1 - 1e-3]`` — the one-cell chi-square
statistic for a binomial proportion.  Under no drift each term has
expectation ~1, so the *normalized* score (total / number of cells) sits
near 1; the default trigger threshold of 25 corresponds to a wildly
unlikely deviation and is deliberately conservative, since a replan costs
real planning work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.cost import NodeCostContribution, cost_decomposition
from repro.core.plan import PlanNode
from repro.exceptions import PlanError
from repro.obs.profile import PlanProfile
from repro.probability.base import Distribution
from repro.verify.paths import step_path

__all__ = [
    "CellDrift",
    "DriftReport",
    "DriftMonitor",
    "PROBABILITY_CLAMP",
    "DEFAULT_DRIFT_THRESHOLD",
]

PROBABILITY_CLAMP = 1e-3
DEFAULT_DRIFT_THRESHOLD = 25.0


@dataclass(frozen=True)
class CellDrift:
    """One decision cell's predicted-vs-observed divergence.

    ``kind`` is ``"split"`` (a condition's below-fraction) or ``"step"``
    (a sequential step's pass-fraction); ``term`` is the cell's
    chi-square contribution ``n * (obs - p)^2 / (p * (1 - p))``.
    """

    path: str
    kind: str
    predicted: float
    observed: float
    samples: int
    term: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "kind": self.kind,
            "predicted": round(self.predicted, 6),
            "observed": round(self.observed, 6),
            "samples": self.samples,
            "term": round(self.term, 4),
        }


@dataclass(frozen=True)
class DriftReport:
    """Outcome of one :meth:`DriftMonitor.assess` call.

    ``drifts`` holds every scored cell, in prediction order (what a
    profile report flags per node); :attr:`worst` the three largest.
    """

    score: float
    cells: int
    normalized: float
    predicted_cost: float
    observed_cost: float
    cost_ratio: float
    tuples: int
    drifted: bool
    drifts: tuple[CellDrift, ...] = field(default=())
    debounced: bool = False

    @property
    def worst(self) -> tuple[CellDrift, ...]:
        """The three cells with the largest terms, largest first."""
        return tuple(sorted(self.drifts, key=lambda cell: cell.term, reverse=True)[:3])

    def describe(self) -> str:
        if self.debounced:
            status = "debounced (already fired)"
        else:
            status = "DRIFTED" if self.drifted else "ok"
        return (
            f"drift {status}: score {self.normalized:.2f} over {self.cells} "
            f"cells ({self.tuples} tuples); cost/tuple predicted "
            f"{self.predicted_cost:.2f} observed {self.observed_cost:.2f} "
            f"({self.cost_ratio:.2f}x)"
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "score": round(self.score, 4),
            "cells": self.cells,
            "normalized": round(self.normalized, 4),
            "predicted_cost": round(self.predicted_cost, 6),
            "observed_cost": round(self.observed_cost, 6),
            "cost_ratio": (
                round(self.cost_ratio, 6)
                if self.cost_ratio != float("inf")
                else "inf"
            ),
            "tuples": self.tuples,
            "drifted": self.drifted,
            "debounced": self.debounced,
            "worst": [cell.as_dict() for cell in self.worst],
        }


def _clamp(probability: float) -> float:
    return min(max(probability, PROBABILITY_CLAMP), 1.0 - PROBABILITY_CLAMP)


class DriftMonitor:
    """Scores a plan's observed profile against its Eq. 3 predictions.

    Predictions are computed once at construction (against the statistics
    the plan was built from), by one Eq. 3 walk that also supplies the
    plan's expected cost when ``expected`` is not given (the root's bound;
    the summed live record costs when a broken node no tuple reaches
    leaves the root without one); :meth:`assess`
    may then be called as often as desired against a live profile.  A
    zero-reach subtree has no probability predictions (the model has
    nothing to say about it — but the parent's split probability still
    flags tuples arriving there as drift); a reachable broken node
    (infeasible split, out-of-range index) raises
    :class:`~repro.exceptions.PlanError`.  ``min_visits`` suppresses cells
    with too few observations to be meaningful; ``threshold`` is compared
    against the *normalized* score (per-cell mean chi-square term, ~1
    under no drift).

    A threshold crossing is edge-triggered, not level-triggered: the
    first :meth:`assess` that crosses reports ``drifted=True`` and
    latches; until :meth:`rearm` is called (the replan landing), further
    crossings report ``drifted=False`` with ``debounced=True``.  Without
    the latch, a crossed threshold re-fires on every window between the
    alert and the replan, and every consumer double-counts the same
    drift.  ``debounce=False`` restores the raw level-triggered signal.
    """

    def __init__(
        self,
        plan: PlanNode,
        distribution: Distribution,
        expected: float | None = None,
        min_visits: int = 32,
        threshold: float = DEFAULT_DRIFT_THRESHOLD,
        debounce: bool = True,
    ) -> None:
        self._plan = plan
        records = cost_decomposition(plan, distribution)
        for record in records.values():
            if not record.feasible and record.reach > 0.0:
                raise PlanError(record.detail)
        self._predictions = records
        if expected is None:
            expected = records["root"].bound
            if expected is None:
                expected = sum(record.cost for record in records.values())
        self._expected = expected
        self._min_visits = min_visits
        self._threshold = threshold
        self._debounce = debounce
        self._fired = False

    @property
    def plan(self) -> PlanNode:
        return self._plan

    @property
    def predictions(self) -> dict[str, NodeCostContribution]:
        """The plan's Eq. 3 records, keyed by node path."""
        return self._predictions

    @property
    def expected_cost(self) -> float:
        return self._expected

    @property
    def threshold(self) -> float:
        return self._threshold

    @property
    def fired(self) -> bool:
        """Has a crossing been reported and not yet re-armed?"""
        return self._fired

    def rearm(self) -> None:
        """Reset the debounce latch — call when the replan has landed."""
        self._fired = False

    def cell_drifts(self, profile: PlanProfile) -> list[CellDrift]:
        """Per-cell divergence terms for every sufficiently-visited cell."""
        cells: list[CellDrift] = []
        for path, prediction in self._predictions.items():
            counters = profile.counters(path)
            if counters is None:
                continue
            if (
                prediction.probability_below is not None
                and counters.visits >= self._min_visits
            ):
                cells.append(
                    self._cell(
                        path,
                        "split",
                        prediction.probability_below,
                        counters.below_fraction,
                        counters.visits,
                    )
                )
            for position, passed in enumerate(prediction.step_passes):
                if position >= len(counters.steps):
                    break
                step = counters.steps[position]
                if step.evaluated >= self._min_visits:
                    cells.append(
                        self._cell(
                            step_path(path, position),
                            "step",
                            passed,
                            step.pass_fraction,
                            step.evaluated,
                        )
                    )
        return cells

    def assess(self, profile: PlanProfile) -> DriftReport:
        """Score ``profile`` against the predictions."""
        cells = self.cell_drifts(profile)
        score = sum(cell.term for cell in cells)
        normalized = score / len(cells) if cells else 0.0
        observed = profile.observed_mean_cost()
        if self._expected > 0.0:
            ratio = observed / self._expected
        else:
            ratio = float("inf") if observed > 0.0 else 1.0
        crossed = bool(cells) and normalized > self._threshold
        debounced = crossed and self._debounce and self._fired
        drifted = crossed and not debounced
        if drifted:
            self._fired = True
        return DriftReport(
            score=score,
            cells=len(cells),
            normalized=normalized,
            predicted_cost=self._expected,
            observed_cost=observed,
            cost_ratio=ratio,
            tuples=profile.tuples,
            drifted=drifted,
            debounced=debounced,
            drifts=tuple(cells),
        )

    @staticmethod
    def _cell(
        path: str, kind: str, predicted: float, observed: float, samples: int
    ) -> CellDrift:
        p = _clamp(predicted)
        term = samples * (observed - p) ** 2 / (p * (1.0 - p))
        return CellDrift(
            path=path,
            kind=kind,
            predicted=predicted,
            observed=observed,
            samples=samples,
            term=term,
        )
