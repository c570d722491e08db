"""Planners by name: the one table the CLI and the sharded tier share."""

from __future__ import annotations

from typing import Callable

from repro.exceptions import ReproError
from repro.planning.base import Planner
from repro.planning.corrseq import CorrSeqPlanner
from repro.planning.exhaustive import ExhaustivePlanner
from repro.planning.greedy_conditional import GreedyConditionalPlanner
from repro.planning.greedy_sequential import GreedySequentialPlanner
from repro.planning.naive import NaivePlanner
from repro.planning.optimal_sequential import OptimalSequentialPlanner
from repro.planning.split_points import SplitPointPolicy
from repro.probability.base import Distribution

__all__ = ["PLANNER_NAMES", "planner_by_name"]

# The planners that take nothing but the distribution.
_SEQUENTIAL: dict[str, Callable[[Distribution], Planner]] = {
    "naive": NaivePlanner,
    "greedy-seq": GreedySequentialPlanner,
    "opt-seq": OptimalSequentialPlanner,
    "corr-seq": CorrSeqPlanner,
}
#: Every name :func:`planner_by_name` accepts.
PLANNER_NAMES = (*_SEQUENTIAL, "heuristic", "exhaustive")


def planner_by_name(
    name: str,
    distribution: Distribution,
    max_splits: int = 5,
    split_policy: SplitPointPolicy | None = None,
) -> Planner:
    """The planner called ``name`` over ``distribution``.

    ``heuristic`` is Heuristic-k (greedy conditional splits over the
    correlation-aware sequential planner) with ``k = max_splits``;
    ``split_policy`` restricts the split points it and ``exhaustive``
    consider (``None``: their defaults).
    """
    if name in _SEQUENTIAL:
        return _SEQUENTIAL[name](distribution)
    if name == "heuristic":
        return GreedyConditionalPlanner(
            distribution,
            CorrSeqPlanner(distribution),
            max_splits=max_splits,
            split_policy=split_policy,
        )
    if name == "exhaustive":
        return ExhaustivePlanner(distribution, split_policy=split_policy)
    raise ReproError(f"unknown planner {name!r}; choose from {PLANNER_NAMES}")
