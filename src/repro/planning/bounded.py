"""Size-aware conditional planning: the Section 2.4 joint objective.

Besides bounding plan size outright (Heuristic-k's MAXSIZE), the paper
sketches a second option: fold dissemination cost into the optimization,

    argmin_P  C(P) + alpha * zeta(P),

with ``alpha = (cost to transmit a byte) / (tuples processed in the query
lifetime)``, and notes "this joint optimization problem could be addressed
with an extension of our approach".  :class:`SizeAwareConditionalPlanner`
is that extension for the greedy heuristic: it grows the plan exactly like
GreedyPlan (Figure 7) but only applies a split while the expected
execution saving exceeds the dissemination cost of the bytes the split
adds — so the plan stops growing exactly where the combined objective
stops improving.

Because leaf priorities in GreedyPlan are processed in decreasing saving
order, stopping at the first unprofitable split is optimal within the
greedy trajectory: later splits would save even less per byte.
"""

from __future__ import annotations

import heapq
import itertools

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
from repro.planning.greedy_conditional import _Frontier, _TreeNode
from repro.planning.greedy_split import SplitPass, greedy_splits
from repro.planning.split_points import SplitPointPolicy
from repro.probability import Distribution

__all__ = ["SizeAwareConditionalPlanner"]

# Serialized growth per applied split: one condition node plus one extra
# sequential leaf (the split's two leaves replace the one it expanded).
# Computed per split from the actual subplans, but this floor guards the
# degenerate case of two verdict leaves.
_MIN_SPLIT_BYTES = 8


class SizeAwareConditionalPlanner(Planner):
    """GreedyPlan driven by the combined objective C(P) + alpha * zeta(P).

    Parameters
    ----------
    distribution:
        Probability model.
    base_planner:
        Sequential planner for leaf plans (same distribution required).
    alpha:
        Dissemination weight: transmission cost per byte divided by the
        number of tuples the plan will process in its lifetime.  ``0``
        reduces to an unbounded GreedyPlan.
    split_policy:
        Candidate split points; query boundaries merged automatically.
    max_splits:
        Hard safety cap on top of the objective-driven stopping rule.
    """

    name = "size-aware"

    def __init__(
        self,
        distribution: Distribution,
        base_planner: SequentialPlanner,
        alpha: float,
        split_policy: SplitPointPolicy | None = None,
        max_splits: int = 64,
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
        if alpha < 0:
            raise PlanningError(f"alpha must be >= 0, got {alpha}")
        if max_splits < 0:
            raise PlanningError(f"max_splits must be >= 0, got {max_splits}")
        self._base = base_planner
        self._alpha = float(alpha)
        self._split_policy = split_policy
        self._max_splits = int(max_splits)

    @property
    def alpha(self) -> float:
        return self._alpha

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
        root = _TreeNode(root_plan, root_cost)
        counter = itertools.count()
        queue: list[tuple[float, int, _Frontier]] = []
        self._push(
            queue,
            counter,
            _Frontier(
                node=root,
                ranges=full,
                split=scored.splits[0],
                reach_probability=1.0,
            ),
        )

        execution_cost = root_cost
        splits_used = 0
        while queue and splits_used < self._max_splits:
            negative_priority, _tie, leaf = heapq.heappop(queue)
            saving = -negative_priority
            if leaf.split is None or saving <= 0.0:
                break
            split = leaf.split
            added_bytes = max(
                _MIN_SPLIT_BYTES,
                split.below_plan.size_bytes()
                + split.above_plan.size_bytes()
                + ConditionNode(
                    attribute=schema[split.attribute_index].name,
                    attribute_index=split.attribute_index,
                    split_value=split.split_value,
                    below=split.below_plan,
                    above=split.above_plan,
                ).size_bytes()
                - leaf.node.freeze().size_bytes(),
            )
            # The Section 2.4 stopping rule: apply the split only while its
            # expected execution saving pays for the extra plan bytes.
            if saving <= self._alpha * added_bytes:
                break

            stats.subproblems += 1
            scored = self._score(
                query,
                leaf.ranges,
                policy,
                stats,
                at=(split.attribute_index, split.split_value),
            )
            for child in leaf.expand(scored, schema, self.cost_model):
                self._push(queue, counter, child)
            execution_cost -= saving
            splits_used += 1

        plan = root.freeze()
        combined = execution_cost + self._alpha * plan.size_bytes()
        return PlanningResult(
            plan=plan,
            expected_cost=combined,
            planner=f"{self.name}(alpha={self._alpha:g})",
            stats=stats,
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

