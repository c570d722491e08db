"""Planning algorithms: sequential baselines, the exhaustive optimum, and
the greedy conditional heuristic."""

from repro.planning.bounded import SizeAwareConditionalPlanner
from repro.planning.base import (
    Planner,
    PlannerStats,
    PlanningResult,
    SequentialPlanner,
)
from repro.planning.corrseq import CorrSeqPlanner
from repro.planning.exhaustive import ExhaustivePlanner
from repro.planning.greedy_conditional import GreedyConditionalPlanner
from repro.planning.greedy_sequential import GreedySequentialPlanner
from repro.planning.greedy_split import (
    SplitChoice,
    SplitPass,
    greedy_split,
    greedy_splits,
)
from repro.planning.naive import NaivePlanner
from repro.planning.optimal_sequential import OptimalSequentialPlanner
from repro.planning.registry import PLANNER_NAMES, planner_by_name
from repro.planning.split_points import SplitPointPolicy

__all__ = [
    "Planner",
    "SequentialPlanner",
    "PlannerStats",
    "PlanningResult",
    "NaivePlanner",
    "GreedySequentialPlanner",
    "OptimalSequentialPlanner",
    "CorrSeqPlanner",
    "ExhaustivePlanner",
    "GreedyConditionalPlanner",
    "SizeAwareConditionalPlanner",
    "SplitChoice",
    "SplitPass",
    "greedy_split",
    "greedy_splits",
    "SplitPointPolicy",
    "PLANNER_NAMES",
    "planner_by_name",
]
