"""Dataset-backed probability estimation (Sections 2.3 and 5).

:class:`EmpiricalDistribution` answers every planner probability query by
counting rows of a historical dataset, using the efficiency devices of
Section 5:

- the history is held as a *count table*: its distinct rows (cells) and
  how often each occurs, built once.  Every count is a weighted sum over
  cells, so a 16,000-row lab history of about 2,000 distinct rows costs
  about 2,000 additions per query, not 16,000;
- subproblem cell sets are materialized once per :class:`RangeVector` and
  cached (the per-attribute *index* trick of Section 5.1);
- per-attribute histograms within a subproblem are one weighted
  ``bincount`` and range probabilities accumulate via their cumulative
  sums (Equation 7);
- per-predicate satisfaction masks over the cells are computed once and
  reused across every subproblem (the rediscretized attributes ``X'_i``
  of Section 4.1.2);
- :class:`OutcomeCounter` counts a subproblem's predicate outcomes per
  value of every attribute in one ``bincount`` (split by child when
  GreedyPlan scores both children of an expansion), from which
  GreedySplit reads all its side joints and split probabilities.

Counts are integers whatever their order, so every probability equals the
one row-by-row counting gives, bit for bit.

Optional Laplace smoothing guards against the high-variance estimates the
paper warns about once many conditioning predicates have shrunk the matching
row set (Section 7, "Graphical Models" discussion).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.attributes import Schema
from repro.core.predicates import Predicate
from repro.core.ranges import RangeVector
from repro.exceptions import DistributionError
from repro.probability.base import (
    Distribution,
    PredicateBinding,
    SequentialConditioner,
)

__all__ = ["EmpiricalDistribution", "OutcomeCounter"]

# Joint tables over predicate outcomes are 2**m entries; beyond this many
# predicates callers should use GreedySeq, which never materializes the joint.
_MAX_JOINT_PREDICATES = 20

# Row codes stay below this so the mixed-radix arithmetic cannot overflow.
_MAX_CODE = 1 << 62


class EmpiricalDistribution(Distribution):
    """Empirical conditional probabilities over a discretized dataset.

    Parameters
    ----------
    schema:
        Table schema; fixes domains and attribute order.
    data:
        Integer matrix of shape ``(d, n)`` with values in ``1 .. K_i`` per
        column — the historical training data collected at the basestation.
    smoothing:
        Laplace pseudo-count added per outcome when estimating conditional
        probabilities.  ``0.0`` (default) reproduces the paper's raw counting;
        small positive values stabilize estimates in data-starved
        subproblems.
    max_cached_subproblems:
        Bound on the number of cell-index sets kept; the cache is cleared
        wholesale when the bound is hit (exhaustive planning on small
        domains generates many subproblems, each cheap to recompute).
    """

    def __init__(
        self,
        schema: Schema,
        data: np.ndarray,
        smoothing: float = 0.0,
        max_cached_subproblems: int = 100_000,
    ) -> None:
        super().__init__(schema)
        matrix = np.asarray(data)
        if matrix.ndim != 2:
            raise DistributionError(
                f"data must be a 2-D matrix, got shape {matrix.shape}"
            )
        if matrix.shape[1] != len(schema):
            raise DistributionError(
                f"data has {matrix.shape[1]} columns but schema has "
                f"{len(schema)} attributes"
            )
        if matrix.shape[0] == 0:
            raise DistributionError("data must contain at least one row")
        if not np.issubdtype(matrix.dtype, np.integer):
            raise DistributionError(
                f"data must be integer-valued (discretize first), "
                f"got dtype {matrix.dtype}"
            )
        for column, attribute in enumerate(schema):
            low = int(matrix[:, column].min())
            high = int(matrix[:, column].max())
            if low < 1 or high > attribute.domain_size:
                raise DistributionError(
                    f"column {attribute.name!r} has values in [{low}, {high}] "
                    f"outside domain [1, {attribute.domain_size}]"
                )
        if smoothing < 0:
            raise DistributionError(f"smoothing must be >= 0, got {smoothing}")
        self._data = np.ascontiguousarray(matrix, dtype=np.int64)
        self._cells, self._weights = _count_table(self._data, schema)
        self._smoothing = float(smoothing)
        self._max_cached = int(max_cached_subproblems)
        self._row_cache: dict[RangeVector, np.ndarray] = {}
        self._predicate_masks: dict[tuple, np.ndarray] = {}
        self._all_cells = np.arange(len(self._weights))

    # ------------------------------------------------------------------
    # Cell-set management (Section 5.1 indices)
    # ------------------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The underlying training matrix (read-only view)."""
        view = self._data.view()
        view.flags.writeable = False
        return view

    @property
    def row_total(self) -> int:
        return self._data.shape[0]

    @property
    def smoothing(self) -> float:
        return self._smoothing

    def rows_matching(self, ranges: RangeVector) -> np.ndarray:
        """Indices of the count table's cells consistent with every range.

        Results are cached per subproblem; only narrowed attributes are
        tested, so the match cost is ``O(cells * #narrowed)``.
        """
        cached = self._row_cache.get(ranges)
        if cached is not None:
            return cached
        mask: np.ndarray | None = None
        for index in range(len(ranges)):
            if not ranges.is_acquired(index):
                continue
            interval = ranges[index]
            column = self._cells[:, index]
            column_mask = (column >= interval.low) & (column <= interval.high)
            mask = column_mask if mask is None else (mask & column_mask)
        cells = self._all_cells if mask is None else np.flatnonzero(mask)
        self._remember(ranges, cells)
        return cells

    def _remember(self, ranges: RangeVector, cells: np.ndarray) -> None:
        """Cache ``cells`` as the cell set of ``ranges``."""
        if len(self._row_cache) >= self._max_cached:
            self._row_cache.clear()
        self._row_cache[ranges] = cells

    def row_count(self, ranges: RangeVector) -> int:
        """Number of training rows inside a subproblem."""
        return int(self._weights[self.rows_matching(ranges)].sum())

    # ------------------------------------------------------------------
    # Distribution interface
    # ------------------------------------------------------------------

    def range_probability(self, ranges: RangeVector) -> float:
        return self.row_count(ranges) / self.row_total

    def attribute_histogram(
        self, attribute_index: int, ranges: RangeVector
    ) -> np.ndarray:
        cells = self.rows_matching(ranges)
        interval = ranges[attribute_index]
        counts = np.bincount(
            self._cells[cells, attribute_index] - interval.low,
            weights=self._weights[cells],
            minlength=len(interval),
        )
        return _normalised(counts, self._smoothing)

    def conjunction_probability(
        self, bindings: Sequence[PredicateBinding], ranges: RangeVector
    ) -> float:
        cells = self.rows_matching(ranges)
        weights = self._weights[cells]
        denominator = int(weights.sum()) + 2.0 * self._smoothing
        if denominator <= 0.0:
            return 0.0
        satisfied = self._conjunction_mask(bindings, cells)
        return (float(weights @ satisfied) + self._smoothing) / denominator

    def predicate_joint(
        self, bindings: Sequence[PredicateBinding], ranges: RangeVector
    ) -> np.ndarray:
        if len(bindings) > _MAX_JOINT_PREDICATES:
            raise DistributionError(
                f"joint over {len(bindings)} predicates would need "
                f"2**{len(bindings)} entries; use GreedySeq-style conditional "
                "queries instead"
            )
        cells = self.rows_matching(ranges)
        size = 1 << len(bindings)
        if cells.size == 0:
            return np.zeros(size, dtype=np.float64)
        codes = self._outcome_codes(bindings, cells)
        counts = np.bincount(codes, weights=self._weights[cells], minlength=size)
        if self._smoothing:
            counts += self._smoothing
        return counts / counts.sum()

    def outcome_counter(
        self,
        bindings: Sequence[PredicateBinding],
        ranges: RangeVector,
        at: tuple[int, int] | None = None,
    ) -> "OutcomeCounter":
        return OutcomeCounter(self, bindings, ranges, at)

    def satisfied_given_satisfied(
        self,
        target: PredicateBinding,
        satisfied: Sequence[PredicateBinding],
        ranges: RangeVector,
    ) -> float:
        cells = self.rows_matching(ranges)
        weights = self._weights[cells]
        condition = self._conjunction_mask(satisfied, cells)
        denominator = float(weights @ condition) + 2.0 * self._smoothing
        if denominator <= 0.0:
            # Conditioning event unseen in training data: fall back to the
            # target's marginal within the subproblem.
            return self.conjunction_probability([target], ranges)
        hits = condition & self._satisfaction_mask(target)[cells]
        return (float(weights @ hits) + self._smoothing) / denominator

    def sequential_conditioner(
        self, ranges: RangeVector
    ) -> "_RowSetConditioner":
        return _RowSetConditioner(self, ranges)

    # ------------------------------------------------------------------
    # Predicate satisfaction masks (rediscretized attributes X'_i)
    # ------------------------------------------------------------------

    def _satisfaction_mask(self, binding: PredicateBinding) -> np.ndarray:
        """Boolean mask over the cells: does the predicate hold?"""
        predicate, index = binding
        key = self._mask_key(predicate, index)
        mask = self._predicate_masks.get(key)
        if mask is None:
            column = self._cells[:, index]
            low = getattr(predicate, "low", None)
            high = getattr(predicate, "high", None)
            if low is not None and high is not None:
                inside = (column >= low) & (column <= high)
                mask = inside if predicate.satisfied_by(low) else ~inside
            else:
                # Generic predicate: vectorize via the scalar test per value.
                domain = self._schema[index].domain_size
                table = np.fromiter(
                    (predicate.satisfied_by(value) for value in range(1, domain + 1)),
                    dtype=bool,
                    count=domain,
                )
                mask = table[column - 1]
            self._predicate_masks[key] = mask
        return mask

    def _outcome_codes(
        self, bindings: Sequence[PredicateBinding], cells: np.ndarray
    ) -> np.ndarray:
        """Per-cell outcome bitmask: bit ``j`` set when ``bindings[j]`` holds."""
        codes = np.zeros(cells.size, dtype=np.int64)
        for bit, binding in enumerate(bindings):
            satisfied = np.take(self._satisfaction_mask(binding), cells)
            codes |= satisfied.astype(np.int64) << bit
        return codes

    def _conjunction_mask(
        self, bindings: Sequence[PredicateBinding], cells: np.ndarray
    ) -> np.ndarray:
        """Mask over ``cells``: do all predicates hold simultaneously?"""
        result = np.ones(cells.size, dtype=bool)
        for binding in bindings:
            result &= self._satisfaction_mask(binding)[cells]
        return result

    @staticmethod
    def _mask_key(predicate: Predicate, index: int) -> tuple:
        return (
            type(predicate).__name__,
            index,
            getattr(predicate, "low", None),
            getattr(predicate, "high", None),
        )

    # ------------------------------------------------------------------
    # Convenience statistics
    # ------------------------------------------------------------------

    def marginal_selectivity(self, binding: PredicateBinding) -> float:
        """Marginal ``P(predicate satisfied)`` over the full dataset.

        This is the only statistic the Naive planner consults
        (Section 4.1.1).
        """
        mask = self._satisfaction_mask(binding)
        denominator = self.row_total + 2.0 * self._smoothing
        return (float(self._weights @ mask) + self._smoothing) / denominator

    def clear_caches(self) -> None:
        """Drop cached cell sets and predicate masks (frees memory)."""
        self._row_cache.clear()
        self._predicate_masks.clear()


def _count_table(data: np.ndarray, schema: Schema) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``data`` and how many times each occurs.

    Each row gets a mixed-radix code over the attribute domains; when the
    next attribute would push codes past ``_MAX_CODE``, the codes so far
    are renumbered densely first (at most ``d`` distinct prefixes).
    """
    codes = np.zeros(data.shape[0], dtype=np.int64)
    span = 1
    for column, attribute in enumerate(schema):
        if span * attribute.domain_size > _MAX_CODE:
            _, codes = np.unique(codes, return_inverse=True)
            span = int(codes.max()) + 1
        codes = codes * attribute.domain_size + (data[:, column] - 1)
        span *= attribute.domain_size
    _, first, weights = np.unique(codes, return_index=True, return_counts=True)
    return data[first], weights


def _normalised(counts: np.ndarray, smoothing: float) -> np.ndarray:
    """A value histogram's smoothed pmf (zeros when it holds no mass)."""
    smoothed = counts + smoothing
    total = smoothed.sum()
    if total <= 0.0:
        return np.zeros(len(counts), dtype=np.float64)
    return smoothed / total


# numpy sums a contiguous run of at most this many float64 values in
# eight interleaved accumulators; longer runs are halved first.
_PAIRWISE_BLOCK = 128


def _row_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``values[k, :lengths[k]].sum()`` for every row ``k``, bit for bit.

    Entries past a row's length must be 0.0 and none may be negative.
    ``ndarray.sum`` adds ``n`` float64 values pairwise: fewer than 8 left
    to right from 0.0; up to 128 by adding value ``i`` of the first
    ``n - n % 8`` into accumulator ``i % 8``, combining the accumulators
    as ``((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))`` and adding
    the rest left to right; longer runs as the sums of their two halves
    (split at ``n // 2`` rounded down to a multiple of 8).  Following that
    order on whole arrays sums rows of any lengths in a fixed number of
    passes, and the padding zeros add exactly nothing.
    """
    long = lengths > _PAIRWISE_BLOCK
    if long.any():
        totals = np.empty(len(values))
        if not long.all():
            totals[~long] = _row_sums(values[~long], lengths[~long])
        part = values[long]
        counts = lengths[long]
        half = counts // 2 - counts // 2 % 8
        columns = np.arange(part.shape[1])
        left = np.where(columns < half[:, None], part, 0.0)
        shifted = np.take_along_axis(
            part, np.minimum(columns + half[:, None], part.shape[1] - 1), axis=1
        )
        right = np.where(columns < (counts - half)[:, None], shifted, 0.0)
        totals[long] = _row_sums(left, half) + _row_sums(right, counts - half)
        return totals
    rows, width = values.shape
    if width % 8:
        values = np.concatenate([values, np.zeros((rows, 8 - width % 8))], axis=1)
    blocked = np.arange(values.shape[1]) < (lengths & -8)[:, None]
    lanes = np.where(blocked, values, 0.0)
    sums = np.cumsum(lanes.reshape(rows, -1, 8), axis=1)[:, -1]
    pairs = sums[:, 0::2] + sums[:, 1::2]
    combined = (pairs[:, 0] + pairs[:, 1]) + (pairs[:, 2] + pairs[:, 3])
    # The values past the accumulated ones (x - x is 0.0, x - 0.0 is x).
    running = np.concatenate([combined[:, None], values - lanes], axis=1)
    return np.cumsum(running, axis=1)[:, -1]


class OutcomeCounter:
    """Outcome counts of one scoring pass's cells, by subproblem and value.

    Each cell of ``ranges`` is encoded once as its outcome bitmask over
    ``bindings`` (bit ``j`` set when ``bindings[j]`` holds, as in
    :meth:`EmpiricalDistribution.predicate_joint`).  With ``at = (i, x)``
    each cell is also labelled by the child of ``ranges`` split at
    ``X_i >= x`` that holds it (0 below, 1 above); without, every cell is
    subproblem 0.  One weighted ``bincount`` then counts the outcomes per
    value of every attribute in every subproblem (:meth:`value_counts`):
    a split side's outcome counts are a prefix or suffix sum over one
    such segment's values (Equation 7 lifted to the predicate lattice),
    and the segment's histogram is their row sums.  :meth:`split_probabilities`,
    :meth:`joints` and :meth:`pass_probabilities` turn those counts into
    exactly the floats that :func:`~repro.probability.base.probabilities_below`,
    :meth:`~EmpiricalDistribution.predicate_joint` and the sequential
    conditioner report.  What those methods need beyond the counts (the
    table's segment shifts, :meth:`segment_padding` and
    :meth:`joint_columns`) depends on no cell, so a caller can build it
    once and pass it to every counter.
    """

    def __init__(
        self,
        distribution: EmpiricalDistribution,
        bindings: Sequence[PredicateBinding],
        ranges: RangeVector,
        at: tuple[int, int] | None = None,
    ) -> None:
        cells = distribution.rows_matching(ranges)
        self._cells = np.take(distribution._cells, cells, axis=0)
        self._weights = np.take(distribution._weights, cells)
        self._codes = distribution._outcome_codes(bindings, cells)
        self._labels: np.ndarray | None = None
        if at is not None:
            above = self._cells[:, at[0]] >= at[1]
            self._labels = above.astype(np.int64)
            # The children's cell sets, ready for their own passes.
            for child, inside in zip(ranges.split(*at), (~above, above)):
                distribution._remember(child, cells[inside])
        self._size = 1 << len(bindings)
        self._smoothing = distribution.smoothing

    def outcome_counts(self) -> np.ndarray:
        """Rows per outcome bitmask over every cell (float64 integer counts)."""
        return np.bincount(self._codes, weights=self._weights, minlength=self._size)

    @property
    def smoothing(self) -> float:
        """The distribution's Laplace smoothing."""
        return self._smoothing

    def value_counts(self, shifts: np.ndarray, rows: int) -> np.ndarray:
        """Outcome counts per value of each attribute in each subproblem.

        Segment ``(k, i)`` is attribute ``i``'s interval in subproblem
        ``k``; the segments run through the table's ``rows`` rows in
        row-major order, and value ``v`` of a cell of subproblem ``k``
        counts on row ``v + shifts[k, i]``.  Column ``t`` counts the rows
        with outcome bitmask ``t``.  Returns a float64 array of integer
        counts, shape ``(rows, 2**m)``.
        """
        # Each cell lands in its own subproblem's segments.
        values = self._cells + (
            shifts[0] if self._labels is None else np.take(shifts, self._labels, axis=0)
        )
        counts = np.bincount(
            (values * self._size + self._codes[:, None]).ravel(),
            weights=np.repeat(self._weights, shifts.shape[1]),
            minlength=rows * self._size,
        )
        return counts.reshape(-1, self._size)

    @staticmethod
    def segment_padding(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The segments of a :meth:`value_counts` table as padded rows.

        Segment ``s`` spans ``lengths[s]`` rows of the table and becomes
        row ``s`` of a zero-padded array whose width is a multiple of 8.
        Returns ``lengths`` and the mask of each padded row's first
        ``lengths[s]`` entries: the segments run through the table in
        order, so that row-major mask lays them out.
        """
        width = -(-int(lengths.max()) // 8) * 8
        return lengths, np.arange(width) < lengths[:, None]

    def split_probabilities(
        self,
        counts: np.ndarray,
        padding: tuple[np.ndarray, np.ndarray],
        segments: np.ndarray,
        offsets: np.ndarray,
    ) -> np.ndarray:
        """``P(X < x)`` of each candidate split of a :meth:`value_counts` table.

        ``padding`` lays the table's segments out as padded rows
        (:meth:`segment_padding`); candidate ``c`` splits segment
        ``segments[c]`` ``offsets[c]`` values above its low end.  Each is
        the float :func:`~repro.probability.base.probabilities_below`
        reads from :meth:`~EmpiricalDistribution.attribute_histogram`:
        every segment's histogram is normalised, summed and accumulated
        as one row of the zero-padded array.
        """
        lengths, inside = padding
        smoothed = np.zeros(inside.shape)
        smoothed[inside] = counts.sum(axis=1) + self._smoothing
        # Unsmoothed, the totals are integers, exact in any order.
        totals = (
            _row_sums(smoothed, lengths) if self._smoothing else smoothed.sum(axis=1)
        )
        # A histogram without mass is all zeros.
        histograms = smoothed / np.where(totals > 0.0, totals, 1.0)[:, None]
        masses = _row_sums(histograms, lengths)[segments]
        below = np.cumsum(histograms, axis=1)[segments, offsets - 1]
        positive = masses > 0.0
        return np.where(
            positive,
            below / np.where(positive, masses, 1.0),
            offsets / lengths[segments],
        )

    @staticmethod
    def joint_columns(
        held: np.ndarray, count: int
    ) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Where :meth:`joints` places each row set's smoothed joint.

        Row set ``k`` satisfies the predicates in bitmask ``held[k]`` (of
        ``count``); its joint over the other predicates sits on the states
        that hold them all: the smaller lattice's states with the held
        bits put back in, ascending.  Returns one ``(rows, columns)`` pair
        per number of held predicates: the row sets with that many, and
        their states, one row each.
        """
        held_bits = (held[:, None] >> np.arange(count)) & 1
        popcounts = held_bits.sum(axis=1)
        groups = []
        for popcount in np.flatnonzero(np.bincount(popcounts)).tolist():
            rows = np.flatnonzero(popcounts == popcount)
            free = np.nonzero(held_bits[rows] == 0)[1].reshape(len(rows), -1)
            digits = (
                np.arange(1 << (count - popcount))[:, None]
                >> np.arange(count - popcount)
            ) & 1
            columns = held[rows, None] | (digits << free[:, None, :]).sum(axis=2)
            groups.append((rows, columns))
        return tuple(groups)

    def joints(
        self,
        counts: np.ndarray,
        columns: Sequence[tuple[np.ndarray, np.ndarray]],
    ) -> np.ndarray:
        """:meth:`~EmpiricalDistribution.predicate_joint` of each row set.

        Row ``k`` of ``counts`` holds one row set's outcome counts, and
        ``columns`` (:meth:`joint_columns`) says which predicates each row
        set holds: its joint is the one over the other predicates, on the
        states that hold all of its own; other states get 0.
        """
        if not self._smoothing:
            # Unsmoothed, a joint is its counts over their total, which
            # any summation order gives exactly, and the states outside
            # the smaller lattice count no rows.
            totals = counts.sum(axis=1, keepdims=True)
            return np.divide(
                counts, totals, out=np.zeros(counts.shape), where=totals > 0.0
            )
        joints = np.zeros(counts.shape)
        for rows, states in columns:
            smoothed = counts[rows[:, None], states] + self._smoothing
            # A row set without rows has the all-zero joint.
            smoothed[counts[rows].sum(axis=1) == 0] = 0.0
            totals = smoothed.sum(axis=1, keepdims=True)
            joints[rows[:, None], states] = np.divide(
                smoothed, totals, out=np.zeros(smoothed.shape), where=totals > 0.0
            )
        return joints

    def pass_probabilities(
        self, sums: np.ndarray, satisfied: np.ndarray, bits: np.ndarray
    ) -> np.ndarray:
        """The sequential conditioner's pass probabilities for each row set.

        ``sums[k]`` are row set ``k``'s superset sums of outcome counts:
        ``sums[k, S]`` rows satisfy every predicate in ``S``.  Entry
        ``[k, t]`` is ``P(bits[k, t] holds | satisfied[k, t] all held)``,
        falling back to the predicate's marginal when no row satisfies
        ``satisfied[k, t]``.  The marginal is taken given
        ``satisfied[k, 0]``, the predicates every row of set ``k`` holds.
        """
        smoothing = self._smoothing
        sets = np.arange(len(sums))[:, None]
        held = sums[sets, satisfied] + 2.0 * smoothing
        hits = sums[sets, satisfied | bits] + smoothing
        if (held > 0.0).all():
            return hits / held
        base = satisfied[:, :1]
        marginal_rows = sums[sets, base] + 2.0 * smoothing
        marginal = np.divide(
            sums[sets, base | bits] + smoothing,
            marginal_rows,
            out=np.zeros(bits.shape),
            where=marginal_rows > 0.0,
        )
        return np.divide(hits, held, out=marginal, where=held > 0.0)


class _RowSetConditioner(SequentialConditioner):
    """Incremental conditioning by shrinking a cell-index set.

    Each :meth:`condition_on` filters the surviving cells (and their row
    counts) through the new predicate's satisfaction mask, so every
    probability query is one mask gather plus a weighted sum — O(cells)
    instead of re-ANDing the whole prefix.  This is the hot path of
    GreedySeq and of Equation 3 costing for sequential plans.
    """

    def __init__(self, distribution: EmpiricalDistribution, ranges: RangeVector):
        super().__init__(distribution, ranges)
        self._empirical = distribution
        self._cells = distribution.rows_matching(ranges)
        self._weights = distribution._weights[self._cells]
        self._rows = int(self._weights.sum())
        self._last: tuple[PredicateBinding, np.ndarray, int] | None = None
        # Lazily-built satisfaction matrix over the bindings seen so far:
        # row k holds predicate k's outcomes on the *surviving* cells, so
        # condition_on only has to column-filter it.
        self._matrix: np.ndarray | None = None
        self._matrix_index: dict[tuple, int] = {}

    def pass_probability(self, binding: PredicateBinding) -> float:
        smoothing = self._empirical.smoothing
        denominator = self._rows + 2.0 * smoothing
        if denominator <= 0.0:
            # Conditioning event unseen: fall back to the subproblem
            # marginal, matching satisfied_given_satisfied's behaviour.
            return self._empirical.conjunction_probability(
                [binding], self._ranges
            )
        _, count = self._hits(binding)
        return (float(count) + smoothing) / denominator

    def pass_probabilities(self, bindings) -> np.ndarray:
        smoothing = self._empirical.smoothing
        denominator = self._rows + 2.0 * smoothing
        if denominator <= 0.0:
            return super().pass_probabilities(bindings)
        matrix_rows = [self._matrix_row(binding) for binding in bindings]
        sums = self._matrix[matrix_rows] @ self._weights
        return (sums + smoothing) / denominator

    def condition_on(self, binding: PredicateBinding) -> None:
        super().condition_on(binding)
        mask, self._rows = self._hits(binding)
        self._cells = self._cells[mask]
        self._weights = self._weights[mask]
        self._last = None
        if self._matrix is not None:
            self._matrix = self._matrix[:, mask]

    def _hits(self, binding: PredicateBinding) -> tuple[np.ndarray, int]:
        """The surviving cells where ``binding`` holds, and their rows.

        Remembered for the last binding asked: Equation 3's walk asks
        for a step's pass probability, then conditions on that step.
        """
        if self._last is None or self._last[0] is not binding:
            mask = self._empirical._satisfaction_mask(binding)[self._cells]
            self._last = (binding, mask, int(self._weights @ mask))
        return self._last[1], self._last[2]

    def _matrix_row(self, binding: PredicateBinding) -> int:
        """Index of the binding's outcome row, gathering it on first use."""
        key = self._empirical._mask_key(*binding)
        index = self._matrix_index.get(key)
        if index is None:
            outcomes = self._empirical._satisfaction_mask(binding)[self._cells]
            if self._matrix is None:
                self._matrix = outcomes[None, :]
            else:
                self._matrix = np.vstack([self._matrix, outcomes[None, :]])
            index = self._matrix.shape[0] - 1
            self._matrix_index[key] = index
        return index
