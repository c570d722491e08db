"""The probability interface consumed by every planner.

Planners need four kinds of quantities (Sections 2.3 and 5):

- the absolute probability of reaching a subproblem, ``P(R_1 .. R_n)`` —
  GreedyPlan's leaf priorities (Figure 7);
- split probabilities ``P(X_i < x | R_1 .. R_n)`` — Equation 5 / Figure 5;
- per-attribute histograms within a subproblem — the incremental range
  probabilities of Equation 7;
- conjunction / joint probabilities over the *rediscretized* predicate
  outcomes ``X'_1 .. X'_m`` — the sequential planners of Section 4.1.

:class:`Distribution` abstracts those so the planners run unchanged against
the empirical dataset model (:mod:`repro.probability.empirical`) or the
Chow–Liu graphical model (:mod:`repro.probability.graphical`, the Section 7
extension).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.attributes import Schema
from repro.core.predicates import Predicate
from repro.core.ranges import Range, RangeVector

if TYPE_CHECKING:
    from repro.probability.empirical import OutcomeCounter

__all__ = [
    "Distribution",
    "PredicateBinding",
    "SequentialConditioner",
    "probabilities_below",
]

# A predicate paired with its attribute's schema index — the planners resolve
# indices once via ConjunctiveQuery.attribute_indices and pass bindings down.
PredicateBinding = tuple[Predicate, int]


def probabilities_below(
    histogram: np.ndarray, interval: Range, split_values: Sequence[int]
) -> list[float]:
    """``P(X < x)`` for each split value ``x`` of ``interval`` (Equation 7).

    ``histogram`` is the pmf over ``interval``'s values; the masses below
    every split accumulate in one cumulative sum.  An unreachable
    subproblem (no mass) falls back to a uniform spread so the planners
    still receive a usable (if uninformative) number.
    """
    total = float(histogram.sum())
    if total <= 0.0:
        return [(value - interval.low) / len(interval) for value in split_values]
    cumulative = np.zeros(len(histogram) + 1)
    np.cumsum(histogram, out=cumulative[1:])
    return [float(cumulative[value - interval.low]) / total for value in split_values]


class Distribution(ABC):
    """Conditional probabilities over a schema's attribute space."""

    def __init__(self, schema: Schema) -> None:
        self._schema = schema

    @property
    def schema(self) -> Schema:
        return self._schema

    @abstractmethod
    def range_probability(self, ranges: RangeVector) -> float:
        """Absolute probability ``P(X_1 in R_1, ..., X_n in R_n)``."""

    @abstractmethod
    def attribute_histogram(self, attribute_index: int, ranges: RangeVector) -> np.ndarray:
        """Conditional pmf of one attribute within a subproblem.

        Returns an array of length ``len(ranges[attribute_index])`` whose
        ``j``-th entry is ``P(X_i = low + j | R_1 .. R_n)``; entries sum to 1
        (or to 0 for an unreachable subproblem when the implementation does
        not smooth).
        """

    def split_probability(
        self, attribute_index: int, split_value: int, ranges: RangeVector
    ) -> float:
        """``P(X_i < split_value | R_1 .. R_n)`` for an interior split point.

        The default implementation accumulates the attribute histogram,
        which is exactly the incremental rule of Equation 7
        (:func:`probabilities_below`, as the planners compute it).
        """
        histogram = self.attribute_histogram(attribute_index, ranges)
        return probabilities_below(histogram, ranges[attribute_index], [split_value])[0]

    @abstractmethod
    def conjunction_probability(
        self, bindings: Sequence[PredicateBinding], ranges: RangeVector
    ) -> float:
        """``P(all predicates satisfied | R_1 .. R_n)``."""

    @abstractmethod
    def predicate_joint(
        self, bindings: Sequence[PredicateBinding], ranges: RangeVector
    ) -> np.ndarray:
        """Joint pmf over predicate-outcome bitmasks within a subproblem.

        Returns an array of length ``2**m`` where entry ``s`` is the
        probability that exactly the predicates whose bit is set in ``s``
        are satisfied (bit ``j`` corresponds to ``bindings[j]``), given the
        subproblem ranges.  This is the rediscretized joint distribution of
        Section 4.1.2 / 5.2.
        """

    def outcome_counter(
        self,
        bindings: Sequence[PredicateBinding],
        ranges: RangeVector,
        at: tuple[int, int] | None = None,
    ) -> "OutcomeCounter | None":
        """Integer outcome counts for scoring many split sides at once.

        Dataset-backed models return an
        :class:`~repro.probability.empirical.OutcomeCounter` over the
        subproblem's rows, labelled by child when ``at = (i, x)`` names
        the split of ``ranges`` whose two children are scored; models that do not count rows return ``None``
        and planners fall back to one query per side.
        """
        return None

    def satisfied_given_satisfied(
        self,
        target: PredicateBinding,
        satisfied: Sequence[PredicateBinding],
        ranges: RangeVector,
    ) -> float:
        """``P(target satisfied | satisfied predicates hold, R_1 .. R_n)``.

        The quantity GreedySeq recomputes at every step (Section 4.1.3).
        The default implementation takes a ratio of conjunction
        probabilities; dataset-backed models override it with direct counts.
        """
        denominator = self.conjunction_probability(satisfied, ranges)
        if denominator <= 0.0:
            # No mass on the conditioning event: assume independence and
            # fall back to the target's marginal within the subproblem.
            return self.conjunction_probability([target], ranges)
        numerator = self.conjunction_probability([*satisfied, target], ranges)
        return numerator / denominator

    def sequential_conditioner(self, ranges: RangeVector) -> "SequentialConditioner":
        """An incremental view for walking one predicate order.

        Sequential planning and sequential-plan costing repeatedly ask
        "given the predicates accepted so far, will the next one pass?".
        Naively each such query re-derives the conditioning event from
        scratch; a conditioner carries the event forward step by step, so
        dataset-backed models can shrink a row set instead of re-ANDing
        masks (the incremental spirit of Equation 7 applied to the
        satisfied-predicate prefix).  The default implementation simply
        delegates to :meth:`satisfied_given_satisfied`.
        """
        return SequentialConditioner(self, ranges)


class SequentialConditioner:
    """Incremental conditioning on a growing satisfied-predicate prefix."""

    def __init__(self, distribution: Distribution, ranges: RangeVector) -> None:
        self._distribution = distribution
        self._ranges = ranges
        self._satisfied: list[PredicateBinding] = []

    def pass_probability(self, binding: PredicateBinding) -> float:
        """``P(binding holds | everything conditioned so far holds)``."""
        return self._distribution.satisfied_given_satisfied(
            binding, self._satisfied, self._ranges
        )

    def pass_probabilities(
        self, bindings: Sequence[PredicateBinding]
    ) -> np.ndarray:
        """Vector of :meth:`pass_probability` over many candidates.

        GreedySeq evaluates every remaining predicate at every step;
        dataset-backed conditioners override this with one batched
        column-mean instead of per-predicate queries.
        """
        return np.fromiter(
            (self.pass_probability(binding) for binding in bindings),
            dtype=np.float64,
            count=len(bindings),
        )

    def condition_on(self, binding: PredicateBinding) -> None:
        """Extend the conditioning event: ``binding`` was observed to hold."""
        self._satisfied.append(binding)
