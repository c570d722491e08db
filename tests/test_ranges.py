"""Unit and property tests for Range and RangeVector."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Attribute, Range, RangeVector, Schema
from repro.exceptions import PlanningError


class TestRange:
    def test_length(self):
        assert len(Range(2, 5)) == 4
        assert len(Range(3, 3)) == 1

    def test_contains(self):
        interval = Range(2, 5)
        assert 2 in interval and 5 in interval
        assert 1 not in interval and 6 not in interval
        assert "2" not in interval

    def test_iteration(self):
        assert list(Range(1, 3)) == [1, 2, 3]

    def test_empty_rejected(self):
        with pytest.raises(PlanningError):
            Range(5, 2)

    def test_split_at(self):
        below, above = Range(1, 6).split_at(4)
        assert (below.low, below.high) == (1, 3)
        assert (above.low, above.high) == (4, 6)

    def test_split_at_boundary_values(self):
        below, above = Range(1, 2).split_at(2)
        assert len(below) == 1 and len(above) == 1

    def test_split_outside_rejected(self):
        with pytest.raises(PlanningError):
            Range(1, 6).split_at(1)  # below-empty split
        with pytest.raises(PlanningError):
            Range(1, 6).split_at(7)

    def test_intersects(self):
        assert Range(1, 3).intersects(Range(3, 5))
        assert not Range(1, 2).intersects(Range(3, 5))

    def test_is_subset_of(self):
        assert Range(2, 3).is_subset_of(Range(1, 5))
        assert not Range(2, 6).is_subset_of(Range(1, 5))

    def test_intersection(self):
        assert Range(1, 4).intersection(Range(3, 6)) == Range(3, 4)
        assert Range(1, 2).intersection(Range(4, 6)) is None

    @given(
        low=st.integers(1, 20),
        width=st.integers(0, 20),
        data=st.data(),
    )
    def test_split_partitions(self, low, width, data):
        """Splitting partitions the interval: disjoint halves covering it."""
        interval = Range(low, low + width)
        if len(interval) < 2:
            return
        split = data.draw(st.integers(interval.low + 1, interval.high))
        below, above = interval.split_at(split)
        assert len(below) + len(above) == len(interval)
        assert below.high + 1 == above.low
        assert not below.intersects(above)


class TestRangeVector:
    def schema(self) -> Schema:
        return Schema([Attribute("a", 4), Attribute("b", 3), Attribute("c", 2)])

    def test_full_spans_domains(self):
        ranges = RangeVector.full(self.schema())
        assert ranges.ranges == (Range(1, 4), Range(1, 3), Range(1, 2))

    def test_is_acquired_initially_false(self):
        ranges = RangeVector.full(self.schema())
        assert not any(ranges.is_acquired(i) for i in range(3))

    def test_split_marks_acquired(self):
        ranges = RangeVector.full(self.schema())
        below, above = ranges.split(0, 3)
        assert below.is_acquired(0) and above.is_acquired(0)
        assert not below.is_acquired(1)
        assert below[0] == Range(1, 2)
        assert above[0] == Range(3, 4)

    def test_with_range(self):
        ranges = RangeVector.full(self.schema())
        narrowed = ranges.with_range(1, Range(2, 2))
        assert narrowed[1] == Range(2, 2)
        assert ranges[1] == Range(1, 3)  # original untouched

    def test_equality_and_hash(self):
        schema = self.schema()
        first = RangeVector.full(schema)
        second = RangeVector.full(schema)
        assert first == second
        assert hash(first) == hash(second)
        assert first.split(0, 2)[0] != first

    def test_usable_as_dict_key(self):
        schema = self.schema()
        cache = {RangeVector.full(schema): "root"}
        assert cache[RangeVector.full(schema)] == "root"

    def test_split_candidates(self):
        ranges = RangeVector.full(self.schema())
        assert list(ranges.split_candidates(0)) == [2, 3, 4]
        narrowed = ranges.with_range(0, Range(2, 3))
        assert list(narrowed.split_candidates(0)) == [3]

    def test_contains_tuple(self):
        ranges = RangeVector.full(self.schema()).with_range(0, Range(2, 3))
        assert ranges.contains_tuple([2, 1, 1])
        assert not ranges.contains_tuple([4, 1, 1])

    def test_contains_tuple_arity_check(self):
        with pytest.raises(PlanningError):
            RangeVector.full(self.schema()).contains_tuple([1, 1])

    def test_range_exceeding_domain_rejected(self):
        with pytest.raises(PlanningError):
            RangeVector([Range(1, 5), Range(1, 3), Range(1, 2)], (4, 3, 2))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(PlanningError):
            RangeVector([Range(1, 4)], (4, 3))

    def test_with_range_exceeding_domain_rejected(self):
        ranges = RangeVector.full(self.schema())
        with pytest.raises(PlanningError, match="attribute index 1"):
            ranges.with_range(1, Range(2, 4))

    def test_narrowed_vectors_match_fresh_construction(self):
        """``split``/``with_range`` skip re-validating the untouched
        intervals; the result is indistinguishable from a new vector."""
        schema = self.schema()
        below, above = RangeVector.full(schema).split(1, 2)
        narrowed = above.with_range(0, Range(2, 3))
        for vector in (below, above, narrowed):
            fresh = RangeVector(list(vector.ranges), schema.domain_sizes)
            assert vector == fresh
            assert hash(vector) == hash(fresh)
            assert vector.domain_sizes == fresh.domain_sizes
            assert vector.acquired_indices() == fresh.acquired_indices()
        assert narrowed.ranges == (Range(2, 3), Range(2, 3), Range(1, 2))
