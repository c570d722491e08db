"""Planner interfaces and shared helpers.

Two planner shapes exist in the paper:

- *sequential* planners (Section 4.1) produce a fixed predicate order for a
  subproblem — they implement :class:`SequentialPlanner.plan_sequence` and
  double as the leaf builders inside the conditional planners;
- *conditional* planners (Sections 3.2 and 4.2) produce full decision trees
  and implement only :class:`Planner.plan`.

Both report a :class:`PlanningResult` carrying the plan, its expected cost
under the planner's probability model, and search statistics.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.core.cost import acquisition_charge
from repro.core.cost_models import AcquisitionCostModel
from repro.core.plan import PlanNode, SequentialNode, SequentialStep, VerdictLeaf
from repro.core.predicates import Truth
from repro.core.query import ConjunctiveQuery
from repro.core.ranges import RangeVector
from repro.exceptions import PlanningError
from repro.probability.base import (
    Distribution,
    PredicateBinding,
    probabilities_below,
)

if TYPE_CHECKING:
    from repro.analysis.certificates import CostCertificate
    from repro.learn.bandit import LearnedProvenance

__all__ = [
    "PlannerStats",
    "PlanningResult",
    "Planner",
    "SequentialPlanner",
    "SideScores",
    "SplitScorer",
    "effective_cost",
    "resolved_leaf",
    "sequential_node_from_order",
    "require_conjunctive",
    "split_probabilities",
]


@dataclass
class PlannerStats:
    """Search-effort counters populated while planning."""

    subproblems: int = 0
    cache_hits: int = 0
    pruned: int = 0
    splits_considered: int = 0
    sequential_plans_built: int = 0

    def merge(self, other: "PlannerStats") -> None:
        self.subproblems += other.subproblems
        self.cache_hits += other.cache_hits
        self.pruned += other.pruned
        self.splits_considered += other.splits_considered
        self.sequential_plans_built += other.sequential_plans_built


@dataclass(frozen=True)
class PlanningResult:
    """The outcome of one planning run.

    ``planning_seconds`` is the wall-clock cost of producing the plan —
    zero unless the run went through :meth:`Planner.plan_timed`.  Serving
    layers use it to report planning-vs-execution latency and to decide
    whether a plan is worth caching.  ``certificate`` (when the planner
    issues one) carries per-subtree Eq. 3 cost-bound claims the verifier
    re-derives independently (``DF101``); the exhaustive planner exports
    it straight from its DP cache, the heuristic from its scoring passes.  ``provenance`` is populated by the
    learned planner (:class:`repro.learn.BanditPlanner`): the arm
    posteriors and regret-ledger snapshot behind the emitted plan, which
    the verifier's ``LRN`` rule family audits.
    """

    plan: PlanNode
    expected_cost: float
    planner: str
    stats: PlannerStats = field(default_factory=PlannerStats)
    planning_seconds: float = 0.0
    certificate: "CostCertificate | None" = None
    provenance: "LearnedProvenance | None" = None


class Planner(ABC):
    """A query planner bound to a probability model.

    ``cost_model`` optionally replaces the schema's flat per-attribute
    costs with a Section 7 conditional cost model (e.g. shared sensor-board
    power-up); ``None`` keeps the paper's base model.
    """

    name = "planner"

    def __init__(
        self,
        distribution: Distribution,
        cost_model: AcquisitionCostModel | None = None,
    ) -> None:
        self._distribution = distribution
        self._cost_model = cost_model

    @property
    def distribution(self) -> Distribution:
        return self._distribution

    @property
    def cost_model(self) -> AcquisitionCostModel | None:
        return self._cost_model

    @property
    def schema(self):
        return self._distribution.schema

    @abstractmethod
    def plan(self, query: ConjunctiveQuery) -> PlanningResult:
        """Produce a plan for ``query`` over the full attribute space."""

    def plan_timed(self, query: ConjunctiveQuery) -> PlanningResult:
        """:meth:`plan`, with wall-clock planning cost stamped on the result."""
        start = time.perf_counter()
        result = self.plan(query)
        return replace(
            result, planning_seconds=time.perf_counter() - start
        )


class SequentialPlanner(Planner):
    """A planner whose plans are predicate orders (no conditioning splits)."""

    @abstractmethod
    def plan_sequence(
        self, query: ConjunctiveQuery, ranges: RangeVector
    ) -> tuple[float, PlanNode]:
        """Best sequential plan for the subproblem ``ranges``.

        Returns ``(expected_cost, plan)`` where the cost is conditioned on
        the subproblem (Equation 3 evaluated under the planner's
        distribution) and the plan is a :class:`SequentialNode` — or a
        :class:`VerdictLeaf` when the ranges already determine the query.
        """

    def split_scorer(
        self,
        query: ConjunctiveQuery,
        ranges: RangeVector,
        at: tuple[int, int] | None = None,
    ) -> "SplitScorer":
        """Prices this planner's plans for one GreedyPlan scoring pass.

        The pass covers ``ranges`` itself, or with ``at = (i, x)`` both
        children of ``ranges`` split at ``X_i >= x``.  GreedySplit
        (Figure 6) asks for ``SeqCost`` of every candidate side of every
        subproblem in the pass, and GreedyPlan (Figure 7) for the root's
        unsplit plan.  The default plans each side with
        :meth:`plan_sequence` when first asked; planners that can score a
        whole pass from one counting pass override this.
        """
        return SplitScorer(self, query, ranges, at)

    def plan(self, query: ConjunctiveQuery) -> PlanningResult:
        require_conjunctive(query)
        ranges = RangeVector.full(self.schema)
        cost, node = self.plan_sequence(query, ranges)
        stats = PlannerStats(sequential_plans_built=1)
        return PlanningResult(
            plan=node, expected_cost=cost, planner=self.name, stats=stats
        )


class SideScores(ABC):
    """Base-plan costs on both sides of one attribute's candidate splits.

    ``position`` indexes the candidate list the scores were built for;
    ``above`` picks the side ``X_i >= x`` over the side ``X_i < x``.
    """

    @abstractmethod
    def probability_below(self, position: int) -> float:
        """``P(X_i < x | R)`` for the candidate split (Equation 7)."""

    @abstractmethod
    def cost(self, position: int, above: bool) -> float:
        """Expected cost (Equation 3) of the side's sequential plan."""

    @abstractmethod
    def plan(self, position: int, above: bool) -> PlanNode:
        """The side's sequential plan (or verdict leaf)."""


class SplitScorer:
    """Scores the candidate split sides of one pass's subproblems.

    ``subproblems`` are ``ranges`` alone, or its two children when the
    pass was asked for a split ``at = (i, x)``.  This default plans a side
    with the planner's :meth:`plan_sequence` only when GreedySplit first
    asks for it, so Figure 6's pruning still skips the sides it never
    needs, and takes split probabilities from the planner's distribution
    per attribute.
    """

    def __init__(
        self,
        planner: SequentialPlanner,
        query: ConjunctiveQuery,
        ranges: RangeVector,
        at: tuple[int, int] | None = None,
    ) -> None:
        self._planner = planner
        self._query = query
        self.subproblems: tuple[RangeVector, ...] = (
            (ranges,) if at is None else ranges.split(*at)
        )

    def sequence(self, subproblem: int) -> tuple[float, PlanNode]:
        """The unsplit base plan of ``subproblems[subproblem]`` and its cost."""
        return self._planner.plan_sequence(
            self._query, self.subproblems[subproblem]
        )

    def score_all(
        self, candidates: list[list[list[int]]]
    ) -> list[list[SideScores | None]]:
        """Side scores of every attribute with candidates, per subproblem.

        ``candidates[k][i]`` are attribute ``i``'s split values in
        subproblem ``k``; an attribute without any gets ``None``.
        """
        return [
            [
                _PlannedSides(self, ranges, index, values) if values else None
                for index, values in enumerate(wanted)
            ]
            for ranges, wanted in zip(self.subproblems, candidates)
        ]


class _PlannedSides(SideScores):
    """One :meth:`SequentialPlanner.plan_sequence` call per side, on demand."""

    def __init__(
        self,
        scorer: SplitScorer,
        ranges: RangeVector,
        attribute_index: int,
        candidates: list[int],
    ) -> None:
        self._scorer = scorer
        self._ranges = ranges
        self._index = attribute_index
        self._candidates = candidates
        self._planned: dict[tuple[int, bool], tuple[float, PlanNode]] = {}
        self._probabilities: list[float] | None = None

    def probability_below(self, position: int) -> float:
        if self._probabilities is None:
            self._probabilities = split_probabilities(
                self._scorer._planner.distribution,
                self._index,
                self._candidates,
                self._ranges,
            )
        return self._probabilities[position]

    def _side(self, position: int, above: bool) -> tuple[float, PlanNode]:
        planned = self._planned.get((position, above))
        if planned is None:
            scorer = self._scorer
            sides = self._ranges.split(self._index, self._candidates[position])
            planned = scorer._planner.plan_sequence(scorer._query, sides[above])
            self._planned[position, above] = planned
        return planned

    def cost(self, position: int, above: bool) -> float:
        return self._side(position, above)[0]

    def plan(self, position: int, above: bool) -> PlanNode:
        return self._side(position, above)[1]


def require_conjunctive(query) -> None:
    """Reject non-conjunctive queries where fail-fast semantics apply.

    Sequential plans reject a tuple at the first failing predicate, which
    is only sound for conjunctions; boolean formulas must go through the
    exhaustive planner (Section 3.1 vs Section 4.1).
    """
    if not isinstance(query, ConjunctiveQuery):
        raise PlanningError(
            f"{type(query).__name__} is not conjunctive; sequential and "
            "heuristic planners require ConjunctiveQuery — use "
            "ExhaustivePlanner for boolean formulas"
        )


def effective_cost(
    schema,
    ranges: RangeVector,
    attribute_index: int,
    cost_model: AcquisitionCostModel | None = None,
) -> float:
    """Acquisition cost ``C'_i`` within a subproblem (Section 3.2).

    Zero when the attribute was already acquired (its range is narrowed);
    otherwise the schema cost ``C_i`` — or, under a conditional cost model,
    the cost given the attributes the subproblem has acquired so far.
    This is the charge the Eq. 3 walk prices a condition node with.
    """
    return acquisition_charge(attribute_index, ranges, schema, cost_model)


def resolved_leaf(query: ConjunctiveQuery, ranges: RangeVector) -> VerdictLeaf | None:
    """A verdict leaf when ``ranges`` already determine the query, else None."""
    truth = query.truth_under(ranges)
    if truth is Truth.UNDETERMINED:
        return None
    return VerdictLeaf(verdict=truth is Truth.TRUE)


def sequential_node_from_order(
    order: list[PredicateBinding],
) -> SequentialNode:
    """Wrap an ordered list of predicate bindings as a plan node."""
    steps = tuple(
        SequentialStep(predicate=predicate, attribute_index=index)
        for predicate, index in order
    )
    return SequentialNode(steps=steps)


def split_probabilities(
    distribution: Distribution,
    attribute_index: int,
    candidates: list[int],
    ranges: RangeVector,
) -> list[float]:
    """``P(X_i < x | R)`` for every candidate split, from one histogram.

    This is exactly Equation 7: a single per-subproblem histogram yields
    every range probability incrementally via its cumulative sums, instead
    of one counting pass per candidate.
    """
    if not candidates:
        return []
    histogram = distribution.attribute_histogram(attribute_index, ranges)
    return probabilities_below(histogram, ranges[attribute_index], candidates)
