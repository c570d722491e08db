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

The plan's cost certificate is read off those passes: a leaf's bound is
the cost its pass priced its sequential plan at, and a condition node's
is its acquisition plus its children's bounds weighted by the split
probability its pass chose it with
(:func:`~repro.core.cost.condition_bound`).  When the rewriter changes
the plan, :func:`~repro.analysis.certificates.carry_certificate` prices
only the rewritten subtrees.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from repro.analysis.certificates import CostCertificate, carry_certificate
from repro.analysis.rewrite import optimize_plan
from repro.core.attributes import Schema
from repro.core.cost import condition_bound
from repro.core.cost_models import AcquisitionCostModel
from repro.core.plan import ConditionNode, PlanNode
from repro.core.query import ConjunctiveQuery
from repro.core.ranges import RangeVector
from repro.exceptions import PlanningError
from repro.planning.base import (
    Planner,
    PlannerStats,
    PlanningResult,
    SequentialPlanner,
    effective_cost,
    require_conjunctive,
)
from repro.planning.greedy_split import SplitChoice, SplitPass, greedy_splits
from repro.planning.split_points import SplitPointPolicy
from repro.probability.base import Distribution

__all__ = ["GreedyConditionalPlanner"]


class _TreeNode:
    """Mutable node of the plan under construction.

    Starts life as a leaf wrapping a sequential plan and the cost its
    scoring pass priced it at; expansion converts it in place into an
    internal split node that keeps its acquisition charge and split
    probability.  :meth:`freeze` emits the final immutable plan tree and
    :meth:`certify` its bounds.
    """

    __slots__ = (
        "plan",
        "cost",
        "attribute",
        "attribute_index",
        "split_value",
        "acquisition",
        "probability_below",
        "below",
        "above",
    )

    def __init__(self, plan: PlanNode, cost: float) -> None:
        self.plan: PlanNode | None = plan
        self.cost = cost
        self.attribute = ""
        self.attribute_index = -1
        self.split_value = 0
        self.acquisition = 0.0
        self.probability_below = 0.0
        self.below: "_TreeNode | None" = None
        self.above: "_TreeNode | None" = None

    def expand(
        self,
        attribute: str,
        attribute_index: int,
        split_value: int,
        acquisition: float,
        probability_below: float,
        below: "_TreeNode",
        above: "_TreeNode",
    ) -> None:
        self.plan = None
        self.attribute = attribute
        self.attribute_index = attribute_index
        self.split_value = split_value
        self.acquisition = acquisition
        self.probability_below = probability_below
        self.below = below
        self.above = above

    def certify(self, bounds: dict[str, float], path: str) -> float:
        """Record this subtree's Eq. 3 bound at every path, in pre-order."""
        if self.plan is not None:
            bounds[path] = self.cost
            return self.cost
        assert self.below is not None and self.above is not None
        bounds[path] = 0.0  # holds the pre-order slot until the sum below
        below = self.below.certify(bounds, path + "/below")
        above = self.above.certify(bounds, path + "/above")
        bounds[path] = condition_bound(
            self.acquisition, self.probability_below, below, above
        )
        return bounds[path]

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
    split: SplitChoice | None
    reach_probability: float

    @property
    def priority(self) -> float:
        """Expected saving of applying the stored split at this leaf."""
        if self.split is None:
            return 0.0
        return self.reach_probability * (self.node.cost - self.split.cost)

    def expand(
        self,
        scored: SplitPass,
        schema: Schema,
        cost_model: AcquisitionCostModel | None,
    ) -> tuple["_Frontier", ...]:
        """Apply the stored split; ``scored`` is the pass over its children.

        The node becomes a condition node keeping the split's acquisition
        charge and probability; returns the two new frontier leaves.
        """
        split = self.split
        assert split is not None
        below = _TreeNode(split.below_plan, split.below_cost)
        above = _TreeNode(split.above_plan, split.above_cost)
        self.node.expand(
            attribute=schema[split.attribute_index].name,
            attribute_index=split.attribute_index,
            split_value=split.split_value,
            acquisition=effective_cost(
                schema, self.ranges, split.attribute_index, cost_model
            ),
            probability_below=split.probability_below,
            below=below,
            above=above,
        )
        return tuple(
            _Frontier(
                node=node,
                ranges=ranges,
                split=child_split,
                reach_probability=self.reach_probability * probability,
            )
            for node, ranges, child_split, probability in zip(
                (below, above),
                scored.subproblems,
                scored.splits,
                (split.probability_below, 1.0 - split.probability_below),
            )
        )


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
            for child in leaf.expand(scored, schema, self.cost_model):
                self._push(queue, counter, child)
            expected_total -= saving
            splits_used += 1

        plan = root.freeze()
        bounds: dict[str, float] = {}
        root.certify(bounds, "root")
        certificate = CostCertificate(bounds=bounds, source="greedy-passes")
        optimized = optimize_plan(plan, schema, query=query)
        if optimized is not plan:
            # The rewrite changed the plan: its certificate prices it.
            certificate = carry_certificate(
                plan,
                certificate,
                optimized,
                self.distribution,
                cost_model=self.cost_model,
            )
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
