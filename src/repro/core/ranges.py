"""Range vectors: the planner's subproblem state.

The exhaustive dynamic program of Section 3.2 is defined over
``Subproblem(phi, R_1=[a_1,b_1], ..., R_n=[a_n,b_n])`` where each ``R_i`` is a
closed integer interval of values attribute ``X_i`` may still take.  A split
on a *conditioning predicate* ``T(X_i >= x)`` divides ``R_i = [a, b]`` into
``[a, x-1]`` and ``[x, b]``, producing two disjoint subproblems.

:class:`Range` models one interval; :class:`RangeVector` models the full
subproblem state, is hashable (the DP memo key), and knows which attributes
have been *acquired* — i.e. narrowed from their full domain — which is what
makes later tests on the same attribute free (Section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.attributes import Schema
from repro.exceptions import PlanningError

__all__ = ["Range", "RangeVector"]


@dataclass(frozen=True, slots=True)
class Range:
    """A closed integer interval ``[low, high]`` with ``low <= high``."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise PlanningError(f"empty range [{self.low}, {self.high}]")

    def __len__(self) -> int:
        return self.high - self.low + 1

    def __contains__(self, value: object) -> bool:
        return isinstance(value, int) and self.low <= value <= self.high

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.low, self.high + 1))

    def split_at(self, value: int) -> tuple["Range", "Range"]:
        """Split into ``[low, value-1]`` and ``[value, high]``.

        ``value`` must satisfy ``low < value <= high`` so both halves are
        non-empty, mirroring the split candidates of Figure 5.
        """
        if not self.low < value <= self.high:
            raise PlanningError(
                f"split point {value} not interior to [{self.low}, {self.high}]"
            )
        return Range(self.low, value - 1), Range(value, self.high)

    def intersects(self, other: "Range") -> bool:
        """Whether the two intervals share at least one value."""
        return self.low <= other.high and other.low <= self.high

    def is_subset_of(self, other: "Range") -> bool:
        """Whether every value in this interval lies in ``other``."""
        return other.low <= self.low and self.high <= other.high

    def intersection(self, other: "Range") -> "Range | None":
        """The overlapping interval, or ``None`` when disjoint."""
        low = max(self.low, other.low)
        high = min(self.high, other.high)
        if low > high:
            return None
        return Range(low, high)


class RangeVector:
    """Immutable vector of per-attribute ranges — one DP subproblem.

    Equality and hashing are defined over the range tuple so a
    ``RangeVector`` can key the exhaustive planner's memoization cache
    directly.
    """

    __slots__ = ("_ranges", "_domain_sizes", "_hash")

    def __init__(self, ranges: Sequence[Range], domain_sizes: Sequence[int]) -> None:
        if len(ranges) != len(domain_sizes):
            raise PlanningError(
                f"{len(ranges)} ranges for {len(domain_sizes)} attributes"
            )
        for index, (interval, size) in enumerate(zip(ranges, domain_sizes)):
            if interval.low < 1 or interval.high > size:
                raise PlanningError(
                    f"range [{interval.low}, {interval.high}] exceeds domain "
                    f"[1, {size}] for attribute index {index}"
                )
        self._ranges = tuple(ranges)
        self._domain_sizes = tuple(int(size) for size in domain_sizes)
        self._hash: int | None = None

    @classmethod
    def full(cls, schema: Schema) -> "RangeVector":
        """The initial subproblem where every attribute spans its domain."""
        sizes = schema.domain_sizes
        return cls([Range(1, size) for size in sizes], sizes)

    @property
    def ranges(self) -> tuple[Range, ...]:
        return self._ranges

    @property
    def domain_sizes(self) -> tuple[int, ...]:
        return self._domain_sizes

    def __len__(self) -> int:
        return len(self._ranges)

    def __getitem__(self, index: int) -> Range:
        return self._ranges[index]

    def __iter__(self) -> Iterator[Range]:
        return iter(self._ranges)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RangeVector) and self._ranges == other._ranges

    def __hash__(self) -> int:
        # Computed on first use: most vectors (the dataflow pass's, a
        # plan walk's) are never hashed.
        if self._hash is None:
            self._hash = hash(self._ranges)
        return self._hash

    def __repr__(self) -> str:
        parts = ", ".join(f"[{r.low},{r.high}]" for r in self._ranges)
        return f"RangeVector({parts})"

    def is_acquired(self, index: int) -> bool:
        """Whether attribute ``index`` has been narrowed from its full domain.

        Acquired attributes incur zero cost for further conditioning
        (Section 2.2): the executor already holds their exact value.
        """
        interval = self._ranges[index]
        return not (interval.low == 1 and interval.high == self._domain_sizes[index])

    def acquired_indices(self) -> frozenset[int]:
        """Indices of all attributes narrowed from their full domain."""
        return frozenset(
            index for index in range(len(self._ranges)) if self.is_acquired(index)
        )

    def with_range(self, index: int, interval: Range) -> "RangeVector":
        """A copy with attribute ``index`` restricted to ``interval``.

        Only the replaced interval is validated; the others and the
        domain sizes are carried over as they are.
        """
        size = self._domain_sizes[index]
        if interval.low < 1 or interval.high > size:
            raise PlanningError(
                f"range [{interval.low}, {interval.high}] exceeds domain "
                f"[1, {size}] for attribute index {index}"
            )
        return self._replaced(index, interval)

    def split(self, index: int, value: int) -> tuple["RangeVector", "RangeVector"]:
        """Apply conditioning predicate ``T(X_index >= value)``.

        Returns the (below, at-or-above) subproblem pair produced by
        splitting ``R_index`` at ``value``.  Both halves lie inside the
        current interval, so neither needs validating.
        """
        below, above = self._ranges[index].split_at(value)
        return self._replaced(index, below), self._replaced(index, above)

    def _replaced(self, index: int, interval: Range) -> "RangeVector":
        ranges = list(self._ranges)
        ranges[index] = interval
        vector = RangeVector.__new__(RangeVector)
        vector._ranges = tuple(ranges)
        vector._domain_sizes = self._domain_sizes
        vector._hash = None
        return vector

    def split_candidates(self, index: int) -> range:
        """Interior split points ``a+1 .. b`` for attribute ``index``."""
        interval = self._ranges[index]
        return range(interval.low + 1, interval.high + 1)

    def contains_tuple(self, values: Sequence[int]) -> bool:
        """Whether a concrete tuple is consistent with every range."""
        if len(values) != len(self._ranges):
            raise PlanningError(
                f"tuple arity {len(values)} != {len(self._ranges)} ranges"
            )
        return all(value in interval for interval, value in zip(self._ranges, values))
