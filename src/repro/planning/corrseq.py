"""CorrSeq: the evaluation's correlation-aware sequential baseline.

Section 6 defines CorrSeq as "sequential plan chosen by considering data
correlations": OptSeq when the number of predicates is small enough for the
``O(m * 2**m)`` DP (the Lab dataset), GreedySeq otherwise (Garden and the
larger synthetic settings).  This wrapper encodes that dispatch so
benchmarks and the conditional heuristic can use one base planner across
datasets of any size.
"""

from __future__ import annotations

from repro.core.plan import PlanNode
from repro.core.query import ConjunctiveQuery
from repro.core.ranges import RangeVector
from repro.planning.base import SequentialPlanner, SplitScorer
from repro.planning.greedy_sequential import GreedySequentialPlanner
from repro.planning.optimal_sequential import OptimalSequentialPlanner
from repro.probability.base import Distribution

__all__ = ["CorrSeqPlanner"]


class CorrSeqPlanner(SequentialPlanner):
    """OptSeq for small queries, GreedySeq beyond ``optimal_threshold``."""

    name = "corr-seq"

    def __init__(
        self,
        distribution: Distribution,
        optimal_threshold: int = 10,
        cost_model=None,
    ) -> None:
        super().__init__(distribution, cost_model)
        self._optimal_threshold = int(optimal_threshold)
        self._optimal = OptimalSequentialPlanner(distribution, cost_model)
        self._greedy = GreedySequentialPlanner(distribution, cost_model)

    @property
    def optimal_threshold(self) -> int:
        return self._optimal_threshold

    def plan_sequence(
        self, query: ConjunctiveQuery, ranges: RangeVector
    ) -> tuple[float, PlanNode]:
        undetermined = len(query.undetermined_predicates(ranges))
        if undetermined <= self._optimal_threshold:
            return self._optimal.plan_sequence(query, ranges)
        return self._greedy.plan_sequence(query, ranges)

    def split_scorer(
        self,
        query: ConjunctiveQuery,
        ranges: RangeVector,
        at: tuple[int, int] | None = None,
    ) -> SplitScorer:
        # A side never has more undetermined predicates than its subproblem,
        # and a child no more than its parent, so every side of small
        # subproblems goes to OptSeq.
        threshold = self._optimal_threshold
        if len(query.undetermined_predicates(ranges)) > threshold and (
            at is None
            or any(
                len(query.undetermined_predicates(child)) > threshold
                for child in ranges.split(*at)
            )
        ):
            return super().split_scorer(query, ranges, at)
        return self._optimal.split_scorer(query, ranges, at)
