"""Probability models answering the planners' conditional queries."""

from repro.probability.base import (
    Distribution,
    PredicateBinding,
    SequentialConditioner,
)
from repro.probability.empirical import EmpiricalDistribution
from repro.probability.graphical import ChowLiuDistribution
from repro.probability.independence import IndependenceDistribution
from repro.probability.joint import conditional_from_superset_sums, superset_sums

__all__ = [
    "Distribution",
    "PredicateBinding",
    "SequentialConditioner",
    "EmpiricalDistribution",
    "ChowLiuDistribution",
    "IndependenceDistribution",
    "superset_sums",
    "conditional_from_superset_sums",
]
