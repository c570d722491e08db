"""The interval abstract domain for plan dataflow analysis.

An :class:`AbstractState` over-approximates everything the plan has
*proven* about the tuple at a program point: for every attribute, a
closed interval of values the tuple may still take (a
:class:`~repro.core.ranges.RangeVector`), plus the set of attribute
indices already *observed* (read) on the path.  Facts come from two
sources:

- an ancestor :class:`~repro.core.plan.ConditionNode` split
  ``T(X >= x)`` narrows ``X``'s interval to one side
  (:meth:`AbstractState.assume_split`);
- a passed :class:`~repro.core.plan.SequentialStep` predicate narrows
  its attribute's interval to the predicate-satisfying values
  (:meth:`AbstractState.assume_pass`).

Plans are trees, so the transfer functions run top-down in one pass —
no fixpoint iteration is needed.  The bottom element (``ranges is
None``) marks program points no tuple can reach: an empty split side or
the tail of a leaf after an always-false step.  All transfer functions
are *sound over-approximations*: every concrete tuple reaching a point
satisfies the point's abstract state, so a predicate the state proves
TRUE/FALSE really is decided for every such tuple.  The one deliberate
precision loss is a :class:`~repro.core.predicates.NotRangePredicate`
whose excluded window falls strictly inside the interval — passing it
punches a hole intervals cannot represent, so the state keeps the whole
interval (still sound).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.attributes import Schema
from repro.core.predicates import (
    NotRangePredicate,
    Predicate,
    RangePredicate,
    Truth,
)
from repro.core.ranges import Range, RangeVector

__all__ = ["AbstractState"]


@dataclass(frozen=True)
class AbstractState:
    """Abstract facts at one plan point: feasible intervals + observed set.

    ``ranges is None`` is the bottom element: the point is unreachable.
    ``observed`` holds the schema indices of every attribute read on the
    path (condition-node tests and sequential-step evaluations) — reads
    are cached by the executor, so a later test on an observed attribute
    is free but may still be redundant.
    """

    ranges: RangeVector | None
    observed: frozenset[int] = frozenset()

    @classmethod
    def top(cls, schema: Schema, ranges: RangeVector | None = None) -> "AbstractState":
        """The entry state: full (or caller-narrowed) ranges, nothing observed.

        A caller-supplied ``ranges`` narrows the root context (verifying
        a subtree in isolation); its already-narrowed attributes count as
        observed, matching :meth:`RangeVector.acquired_indices`.
        """
        context = ranges if ranges is not None else RangeVector.full(schema)
        return cls(ranges=context, observed=context.acquired_indices())

    @classmethod
    def bottom(cls) -> "AbstractState":
        """The unreachable state."""
        return cls(ranges=None, observed=frozenset())

    @property
    def feasible(self) -> bool:
        return self.ranges is not None

    def interval(self, index: int) -> Range | None:
        """The feasible interval for attribute ``index`` (None at bottom)."""
        if self.ranges is None:
            return None
        return self.ranges[index]

    def truth_of(self, predicate: Predicate, index: int) -> Truth:
        """Three-valued predicate truth under this state's interval.

        Undefined at bottom — callers must check :attr:`feasible` first.
        """
        assert self.ranges is not None, "truth_of is undefined at bottom"
        return predicate.truth_under(self.ranges[index])

    def assume_split(self, index: int, split_value: int) -> tuple["AbstractState", "AbstractState"]:
        """Transfer function for ``T(X_index >= split_value)``.

        Returns the (below, above) child states.  A side whose interval
        would be empty is bottom — that child is unreachable for every
        tuple consistent with this state.  Both sides observe the
        attribute: the node reads it before routing.
        """
        if self.ranges is None:
            return AbstractState.bottom(), AbstractState.bottom()
        interval = self.ranges[index]
        observed = self.observed | {index}
        # A decided split passes the whole interval to its live side.
        if split_value <= interval.low:
            return AbstractState.bottom(), AbstractState(self.ranges, observed)
        if split_value > interval.high:
            return AbstractState(self.ranges, observed), AbstractState.bottom()
        below, above = self.ranges.split(index, split_value)
        return AbstractState(below, observed), AbstractState(above, observed)

    def assume_pass(self, predicate: Predicate, index: int) -> "AbstractState":
        """Transfer function for surviving a sequential step.

        Narrows the attribute's interval to the values satisfying
        ``predicate`` (where intervals can express it) and records the
        read.  Returns bottom when no value in the interval satisfies
        the predicate — the step is always-false and its survivors'
        state is unreachable.
        """
        if self.ranges is None:
            return self
        interval = self.ranges[index]
        observed = self.observed | {index}
        narrowed = _pass_interval(predicate, interval)
        if narrowed is None:
            return AbstractState.bottom()
        if narrowed == interval:
            return AbstractState(self.ranges, observed)
        return AbstractState(self.ranges.with_range(index, narrowed), observed)

    def describe(self, schema: Schema | None = None) -> str:
        """Compact one-line rendering for the ``repro analyze`` tree view."""
        if self.ranges is None:
            return "unreachable"
        parts = []
        for index, interval in enumerate(self.ranges):
            name = schema[index].name if schema is not None else f"x{index}"
            mark = "*" if index in self.observed else ""
            parts.append(f"{name}{mark}:[{interval.low},{interval.high}]")
        return " ".join(parts)


def _pass_interval(predicate: Predicate, interval: Range) -> Range | None:
    """The sub-interval of ``interval`` surviving ``predicate``, or None.

    For predicates intervals cannot represent exactly (an interior
    excluded window, or an unknown predicate class) the result is the
    smallest *interval* over-approximation — possibly ``interval``
    itself.
    """
    if isinstance(predicate, RangePredicate):
        return interval.intersection(Range(predicate.low, predicate.high))
    if isinstance(predicate, NotRangePredicate):
        window = Range(predicate.low, predicate.high)
        if interval.is_subset_of(window):
            return None  # every value excluded: always-false
        if not interval.intersects(window):
            return interval  # window misses the interval entirely
        if window.low <= interval.low:
            # Window clips the low end: survivors sit above it.
            return Range(window.high + 1, interval.high)
        if window.high >= interval.high:
            # Window clips the high end: survivors sit below it.
            return Range(interval.low, window.low - 1)
        return interval  # interior hole: not interval-representable
    return interval  # unknown predicate class: no facts, stay sound
