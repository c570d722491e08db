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

Every ``SeqCost`` and every ``P(X_i < x | R)`` of one subproblem comes from
the base planner's split scorer in one call: over an empirical
distribution that is one counting pass over the subproblem's count-table
cells and one OptSeq subset DP (Section 5), however many attributes and
candidates Figure 6 then scans.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.plan import PlanNode
from repro.core.query import ConjunctiveQuery
from repro.core.ranges import RangeVector
from repro.planning.base import PlannerStats, SequentialPlanner, effective_cost
from repro.planning.split_points import SplitPointPolicy
from repro.probability.base import Distribution

__all__ = ["SplitChoice", "greedy_split"]


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


def greedy_split(
    query: ConjunctiveQuery,
    ranges: RangeVector,
    distribution: Distribution,
    base_planner: SequentialPlanner,
    policy: SplitPointPolicy,
    stats: PlannerStats | None = None,
    cost_model=None,
) -> SplitChoice | None:
    """Find the locally optimal binary split, or None when no split exists.

    Implements Figure 6 including its pruning: an attribute whose
    acquisition cost alone reaches the best total so far is skipped, and the
    second side of a split is only costed when the first side leaves room.
    Side costs and split probabilities come from the base planner's
    :meth:`split_scorer` (whose distribution must be ``distribution``),
    asked once for every attribute with candidates: one pass over them
    all costs less than a pass per attribute the scan reaches, even with
    the attributes the pruning then skips.  The counters record the scan
    as Figure 6 walks it, and only the winning split's side plans are
    built.
    """
    schema = distribution.schema
    candidates = [policy.candidates(index, ranges) for index in range(len(schema))]
    scores = base_planner.split_scorer(query, ranges).score_all(candidates)
    # (total, attribute, split value, position, P(below), below cost,
    #  above cost, side scores) of the best split so far.
    best: tuple | None = None

    for index, sides in enumerate(scores):
        acquisition = effective_cost(schema, ranges, index, cost_model)
        if sides is None or (best is not None and acquisition >= best[0]):
            continue
        for position, split_value in enumerate(candidates[index]):
            probability_below = sides.probability_below(position)
            if stats is not None:
                stats.splits_considered += 1
                stats.sequential_plans_built += 1
            below_cost = sides.cost(position, above=False)
            total = acquisition + probability_below * below_cost
            if best is not None and total >= best[0]:
                continue
            if stats is not None:
                stats.sequential_plans_built += 1
            above_cost = sides.cost(position, above=True)
            total += (1.0 - probability_below) * above_cost
            if best is None or total < best[0]:
                best = (
                    total,
                    index,
                    split_value,
                    position,
                    probability_below,
                    below_cost,
                    above_cost,
                    sides,
                )
    if best is None:
        return None
    (
        total,
        index,
        split_value,
        position,
        probability_below,
        below_cost,
        above_cost,
        sides,
    ) = best
    return SplitChoice(
        cost=total,
        attribute_index=index,
        split_value=split_value,
        probability_below=probability_below,
        below_cost=below_cost,
        below_plan=sides.plan(position, above=False),
        above_cost=above_cost,
        above_plan=sides.plan(position, above=True),
    )
