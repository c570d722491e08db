"""GreedyPlan: the polynomial conditional-planning heuristic
(Section 4.2.2, Figure 7) — "Heuristic-k" in the paper's evaluation.

The algorithm grows a decision tree from a single leaf holding the base
sequential plan for the whole problem.  Every frontier leaf carries:

- the subproblem ranges it covers,
- the base sequential plan (and cost) for that subproblem,
- its locally optimal split (:mod:`repro.planning.greedy_split`),
- a priority = P(reaching the leaf) * (sequential cost - split cost),
  i.e. the expected saving from applying the split at that leaf.

A max-priority queue decides which leaf to expand next; expansion turns the
leaf into a condition node whose children become new frontier leaves.  The
loop stops after ``max_splits`` expansions (the Section 2.4 plan-size bound)
or when no remaining leaf's split offers positive savings.

Scoring runs in passes (:func:`~repro.planning.greedy_split.greedy_splits`):
one for the root, which also yields the root's sequential plan, and one per
expansion for both new leaves together.  A Heuristic-k plan therefore
scores in ``1 + expansions`` passes; over an empirical distribution each is
one counting pass and one OptSeq DP.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from repro.analysis.certificates import certify_plan
from repro.analysis.rewrite import optimize_plan
from repro.core.plan import ConditionNode, PlanNode
from repro.core.query import ConjunctiveQuery
from repro.core.ranges import RangeVector
from repro.exceptions import PlanningError
from repro.planning.base import (
    require_conjunctive,
    Planner,
    PlannerStats,
    PlanningResult,
    SequentialPlanner,
)
from repro.planning.greedy_split import SplitChoice, SplitPass, greedy_splits
from repro.planning.split_points import SplitPointPolicy
from repro.probability.base import Distribution

__all__ = ["GreedyConditionalPlanner"]


class _TreeNode:
    """Mutable node of the plan under construction.

    Starts life as a leaf wrapping a sequential plan; expansion converts it
    in place into an internal split node.  :meth:`freeze` emits the final
    immutable plan tree.
    """

    __slots__ = (
        "plan",
        "attribute",
        "attribute_index",
        "split_value",
        "below",
        "above",
    )

    def __init__(self, plan: PlanNode) -> None:
        self.plan: PlanNode | None = plan
        self.attribute = ""
        self.attribute_index = -1
        self.split_value = 0
        self.below: "_TreeNode | None" = None
        self.above: "_TreeNode | None" = None

    def expand(
        self,
        attribute: str,
        attribute_index: int,
        split_value: int,
        below: "_TreeNode",
        above: "_TreeNode",
    ) -> None:
        self.plan = None
        self.attribute = attribute
        self.attribute_index = attribute_index
        self.split_value = split_value
        self.below = below
        self.above = above

    def freeze(self) -> PlanNode:
        if self.plan is not None:
            return self.plan
        assert self.below is not None and self.above is not None
        return ConditionNode(
            attribute=self.attribute,
            attribute_index=self.attribute_index,
            split_value=self.split_value,
            below=self.below.freeze(),
            above=self.above.freeze(),
        )


@dataclass
class _Frontier:
    """A frontier leaf plus the bookkeeping Figure 7 stores per queue entry."""

    node: _TreeNode
    ranges: RangeVector
    sequential_cost: float
    split: SplitChoice | None
    reach_probability: float

    @property
    def priority(self) -> float:
        """Expected saving of applying the stored split at this leaf."""
        if self.split is None:
            return 0.0
        return self.reach_probability * (self.sequential_cost - self.split.cost)


class GreedyConditionalPlanner(Planner):
    """The paper's Heuristic-k conditional planner.

    Parameters
    ----------
    distribution:
        Probability model for split probabilities and leaf priorities.
    base_planner:
        Sequential planner used for leaf plans (OptSeq or GreedySeq; the
        evaluation's CorrSeq wrapper also fits).  Must share this planner's
        distribution so all costs are measured with the same yardstick.
    max_splits:
        The ``k`` in Heuristic-k: maximum number of condition nodes added.
        ``0`` reproduces the base sequential plan exactly.
    split_policy:
        Candidate split points (Section 4.3).  Query predicate boundaries
        are merged in automatically.
    """

    name = "heuristic"

    def __init__(
        self,
        distribution: Distribution,
        base_planner: SequentialPlanner,
        max_splits: int = 5,
        split_policy: SplitPointPolicy | None = None,
        cost_model=None,
    ) -> None:
        super().__init__(distribution, cost_model)
        if base_planner.distribution is not distribution:
            raise PlanningError(
                "base planner must share the conditional planner's distribution"
            )
        if base_planner.cost_model is not cost_model:
            raise PlanningError(
                "base planner must share the conditional planner's cost model"
            )
        if max_splits < 0:
            raise PlanningError(f"max_splits must be >= 0, got {max_splits}")
        self._base = base_planner
        self._max_splits = int(max_splits)
        self._split_policy = split_policy

    @property
    def max_splits(self) -> int:
        return self._max_splits

    def plan(self, query: ConjunctiveQuery) -> PlanningResult:
        require_conjunctive(query)
        schema = self.schema
        policy = self._split_policy or SplitPointPolicy.full(schema)
        policy = policy.with_query_boundaries(query)
        stats = PlannerStats()

        full = RangeVector.full(schema)
        scored = self._score(query, full, policy, stats)
        root_cost, root_plan = scored.sequence(0)
        stats.sequential_plans_built += 1
        root = _TreeNode(root_plan)
        counter = itertools.count()
        queue: list[tuple[float, int, _Frontier]] = []
        self._push(
            queue,
            counter,
            _Frontier(
                node=root,
                ranges=full,
                sequential_cost=root_cost,
                split=scored.splits[0],
                reach_probability=1.0,
            ),
        )

        splits_used = 0
        expected_total = root_cost
        while queue and splits_used < self._max_splits:
            negative_priority, _tie, leaf = heapq.heappop(queue)
            saving = -negative_priority
            if saving <= 0.0 or leaf.split is None:
                break  # no remaining leaf offers a positive expected saving
            split = leaf.split
            stats.subproblems += 1
            scored = self._score(
                query,
                leaf.ranges,
                policy,
                stats,
                at=(split.attribute_index, split.split_value),
            )
            below_node = _TreeNode(split.below_plan)
            above_node = _TreeNode(split.above_plan)
            leaf.node.expand(
                attribute=schema[split.attribute_index].name,
                attribute_index=split.attribute_index,
                split_value=split.split_value,
                below=below_node,
                above=above_node,
            )
            for node, ranges, cost, child_split, probability in zip(
                (below_node, above_node),
                scored.subproblems,
                (split.below_cost, split.above_cost),
                scored.splits,
                (split.probability_below, 1.0 - split.probability_below),
            ):
                self._push(
                    queue,
                    counter,
                    _Frontier(
                        node=node,
                        ranges=ranges,
                        sequential_cost=cost,
                        split=child_split,
                        reach_probability=leaf.reach_probability * probability,
                    ),
                )
            expected_total -= saving
            splits_used += 1

        plan = root.freeze()
        optimized = optimize_plan(plan, schema, query=query)
        certificate = certify_plan(
            optimized, self.distribution, cost_model=self.cost_model
        )
        if optimized != plan:
            # The rewrite changed the plan: its certificate prices it.
            expected_total = certificate.bounds["root"]
        return PlanningResult(
            plan=optimized,
            expected_cost=expected_total,
            planner=f"{self.name}-{self._max_splits}",
            stats=stats,
            certificate=certificate,
        )

    def _score(
        self,
        query: ConjunctiveQuery,
        ranges: RangeVector,
        policy: SplitPointPolicy,
        stats: PlannerStats,
        at: tuple[int, int] | None = None,
    ) -> SplitPass:
        return greedy_splits(
            query,
            ranges,
            self.distribution,
            self._base,
            policy,
            stats,
            self.cost_model,
            at,
        )

    @staticmethod
    def _push(queue, counter, leaf: _Frontier) -> None:
        if leaf.split is None or leaf.priority <= 0.0:
            return
        heapq.heappush(queue, (-leaf.priority, next(counter), leaf))
