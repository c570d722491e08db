"""GreedySplit: locally optimal binary splits (Section 4.2.1, Figure 6).

For a subproblem, the locally optimal split is the conditioning predicate
``T(X_i >= x)`` minimizing

    C'_i + P(X_i < x | R) * SeqCost(R with [a, x-1])
         + P(X_i >= x | R) * SeqCost(R with [x, b])

where ``SeqCost`` is the expected cost of the *base sequential planner*'s
plan for each side (OptSeq in the paper's small-query experiments, GreedySeq
for the larger ones).  The split is compared against simply running the
sequential plan without splitting; GreedyPlan (Figure 7) uses the difference
as its expansion priority.

GreedyPlan scores its subproblems in passes (:func:`greedy_splits`): the
root alone, then at each expansion both new frontier leaves together.
Every ``SeqCost``, every ``P(X_i < x | R)`` and the root's own unsplit
plan come from the base planner's split scorer in one call per pass: over
an empirical distribution that is one counting pass over the parent's
count-table cells and one OptSeq subset DP (Section 5), however many
subproblems, attributes and candidates Figure 6 then scans.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.attributes import Schema
from repro.core.cost_models import AcquisitionCostModel
from repro.core.plan import PlanNode
from repro.core.query import ConjunctiveQuery
from repro.core.ranges import RangeVector
from repro.planning.base import (
    PlannerStats,
    SequentialPlanner,
    SideScores,
    SplitScorer,
    effective_cost,
)
from repro.planning.split_points import SplitPointPolicy
from repro.probability.base import Distribution

__all__ = ["SplitChoice", "SplitPass", "greedy_split", "greedy_splits"]


@dataclass(frozen=True)
class SplitChoice:
    """The locally optimal split for one subproblem."""

    cost: float
    attribute_index: int
    split_value: int
    probability_below: float
    below_cost: float
    below_plan: PlanNode
    above_cost: float
    above_plan: PlanNode


@dataclass(frozen=True)
class SplitPass:
    """One scoring pass: each subproblem's locally optimal split.

    ``subproblems`` are the pass's ranges alone, or its two children
    (below, above); ``splits[k]`` is subproblem ``k``'s split, or None when
    it has none.  :meth:`sequence` reads a subproblem's own unsplit base
    plan from the same pass.
    """

    subproblems: tuple[RangeVector, ...]
    splits: tuple[SplitChoice | None, ...]
    scorer: SplitScorer

    def sequence(self, subproblem: int = 0) -> tuple[float, PlanNode]:
        """``(expected cost, plan)`` of the subproblem's base plan."""
        return self.scorer.sequence(subproblem)


def greedy_splits(
    query: ConjunctiveQuery,
    ranges: RangeVector,
    distribution: Distribution,
    base_planner: SequentialPlanner,
    policy: SplitPointPolicy,
    stats: PlannerStats | None = None,
    cost_model=None,
    at: tuple[int, int] | None = None,
) -> SplitPass:
    """Find the locally optimal split of ``ranges``, or of both its children.

    With ``at = (i, x)`` the pass covers the two children of ``ranges``
    split at ``X_i >= x``, as GreedyPlan expands a leaf.  Side costs, split
    probabilities and the subproblems' own plans come from the base
    planner's :meth:`~repro.planning.base.SequentialPlanner.split_scorer`
    (whose distribution must be ``distribution``), asked once for every
    attribute with candidates in every subproblem: one pass over them all
    costs less than a pass per attribute the scan reaches, even with the
    attributes the pruning then skips.  Each subproblem is then scanned as
    Figure 6 does, pruning included: an attribute whose acquisition cost
    alone reaches the best total so far is skipped, and the second side
    of a split is only costed when the first side leaves room.  The
    counters record each scan as Figure 6 walks it, and only the winning
    splits' side plans are built.
    """
    schema = distribution.schema
    scorer = base_planner.split_scorer(query, ranges, at)
    candidates = [
        [policy.candidates(index, subproblem) for index in range(len(schema))]
        for subproblem in scorer.subproblems
    ]
    scores = scorer.score_all(candidates)
    return SplitPass(
        subproblems=scorer.subproblems,
        splits=tuple(
            _scan(schema, subproblem, wanted, sides, stats, cost_model)
            for subproblem, wanted, sides in zip(
                scorer.subproblems, candidates, scores
            )
        ),
        scorer=scorer,
    )


def greedy_split(
    query: ConjunctiveQuery,
    ranges: RangeVector,
    distribution: Distribution,
    base_planner: SequentialPlanner,
    policy: SplitPointPolicy,
    stats: PlannerStats | None = None,
    cost_model=None,
) -> SplitChoice | None:
    """The locally optimal split of ``ranges`` alone (:func:`greedy_splits`)."""
    return greedy_splits(
        query, ranges, distribution, base_planner, policy, stats, cost_model
    ).splits[0]


def _scan(
    schema: Schema,
    ranges: RangeVector,
    candidates: list[list[int]],
    scores: list[SideScores | None],
    stats: PlannerStats | None,
    cost_model: AcquisitionCostModel | None,
) -> SplitChoice | None:
    """Figure 6's scan of one subproblem over its scored sides."""
    # (attribute, split value, position, P(below), below cost, above cost,
    #  side scores) of the best split so far, whose total is ``least``.
    best: tuple | None = None
    least = 0.0
    considered = above_sides = 0
    for index, sides in enumerate(scores):
        if sides is None:
            continue
        acquisition = effective_cost(schema, ranges, index, cost_model)
        if best is not None and acquisition >= least:
            continue
        probability = sides.probability_below
        cost = sides.cost
        for position, split_value in enumerate(candidates[index]):
            probability_below = probability(position)
            considered += 1
            below_cost = cost(position, False)
            total = acquisition + probability_below * below_cost
            if best is not None and total >= least:
                continue
            above_sides += 1
            above_cost = cost(position, True)
            total += (1.0 - probability_below) * above_cost
            if best is None or total < least:
                least = total
                best = (
                    index,
                    split_value,
                    position,
                    probability_below,
                    below_cost,
                    above_cost,
                    sides,
                )
    if stats is not None:
        # Every candidate costs its below side; those still in the running
        # cost their above side too.
        stats.splits_considered += considered
        stats.sequential_plans_built += considered + above_sides
    if best is None:
        return None
    (
        index,
        split_value,
        position,
        probability_below,
        below_cost,
        above_cost,
        sides,
    ) = best
    return SplitChoice(
        cost=least,
        attribute_index=index,
        split_value=split_value,
        probability_below=probability_below,
        below_cost=below_cost,
        below_plan=sides.plan(position, above=False),
        above_cost=above_cost,
        above_plan=sides.plan(position, above=True),
    )
