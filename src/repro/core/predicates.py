"""Unary predicates over discretized attributes.

The paper's queries are conjunctions of unary range predicates
``l_i <= X_i <= r_i`` (Query 1, Section 1); the Garden workload additionally
uses negated ranges ``not(a <= X <= b)`` (Section 6.2).  Both are modelled
here, along with the three-valued *truth-under-range* test the planners rely
on: given only that ``X_i`` lies in some interval ``R_i``, a predicate may be
proven true, proven false, or remain undetermined.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core.ranges import Range
from repro.exceptions import QueryError

__all__ = ["Truth", "Predicate", "RangePredicate", "NotRangePredicate"]


class Truth(enum.Enum):
    """Three-valued predicate outcome under partial (range) knowledge."""

    TRUE = "true"
    FALSE = "false"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Predicate(ABC):
    """A unary predicate over a single named attribute.

    Subclasses implement point evaluation (:meth:`satisfied_by`) and
    range-level truth determination (:meth:`truth_under`).  Predicates are
    bound to attribute *names*; :class:`repro.core.query.ConjunctiveQuery`
    resolves names to schema indices.
    """

    attribute: str

    @abstractmethod
    def satisfied_by(self, value: int) -> bool:
        """Whether a concrete attribute value satisfies the predicate."""

    @abstractmethod
    def truth_under(self, interval: Range) -> Truth:
        """Predicate truth given only that the attribute lies in ``interval``."""

    def truths_under(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`truth_under` of every interval ``[lows[k], highs[k]]``.

        Returns two boolean arrays: the intervals that prove the predicate
        true, and those that prove it false.
        """
        truths = [
            self.truth_under(Range(int(low), int(high)))
            for low, high in zip(lows, highs)
        ]
        return (
            np.array([truth is Truth.TRUE for truth in truths], dtype=bool),
            np.array([truth is Truth.FALSE for truth in truths], dtype=bool),
        )

    @abstractmethod
    def describe(self) -> str:
        """Human-readable rendering used by the plan pretty-printer."""

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class RangePredicate(Predicate):
    """``low <= X <= high`` over the attribute's discretized domain."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise QueryError(
                f"predicate on {self.attribute!r}: empty range "
                f"[{self.low}, {self.high}]"
            )

    def satisfied_by(self, value: int) -> bool:
        return self.low <= value <= self.high

    def truth_under(self, interval: Range) -> Truth:
        if self.low <= interval.low and interval.high <= self.high:
            return Truth.TRUE  # the interval lies inside the window
        if interval.high < self.low or self.high < interval.low:
            return Truth.FALSE  # the interval misses the window
        return Truth.UNDETERMINED

    def truths_under(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        inside = (lows >= self.low) & (highs <= self.high)
        return inside, (highs < self.low) | (lows > self.high)

    def describe(self) -> str:
        return f"{self.low} <= {self.attribute} <= {self.high}"


@dataclass(frozen=True)
class NotRangePredicate(Predicate):
    """``not (low <= X <= high)`` — the Garden workload's negated ranges."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise QueryError(
                f"predicate on {self.attribute!r}: empty range "
                f"[{self.low}, {self.high}]"
            )

    def satisfied_by(self, value: int) -> bool:
        return not self.low <= value <= self.high

    def truth_under(self, interval: Range) -> Truth:
        if self.low <= interval.low and interval.high <= self.high:
            return Truth.FALSE  # every value is excluded
        if interval.high < self.low or self.high < interval.low:
            return Truth.TRUE  # the window misses the interval
        return Truth.UNDETERMINED

    def truths_under(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        inside = (lows >= self.low) & (highs <= self.high)
        return (highs < self.low) | (lows > self.high), inside

    def describe(self) -> str:
        return f"not({self.low} <= {self.attribute} <= {self.high})"
