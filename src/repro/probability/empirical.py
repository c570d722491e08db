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
  value of every attribute in one ``bincount``, from which GreedySplit
  reads all its side joints and split probabilities.

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
        if len(self._row_cache) >= self._max_cached:
            self._row_cache.clear()
        self._row_cache[ranges] = cells
        return cells

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
        self, bindings: Sequence[PredicateBinding], ranges: RangeVector
    ) -> "OutcomeCounter":
        return OutcomeCounter(self, bindings, ranges)

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
            codes |= self._satisfaction_mask(binding)[cells].astype(np.int64) << bit
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


class OutcomeCounter:
    """Outcome counts of one subproblem's cells, by attribute value.

    Each cell of the subproblem is encoded once as its outcome bitmask over
    ``bindings`` (bit ``j`` set when ``bindings[j]`` holds, as in
    :meth:`EmpiricalDistribution.predicate_joint`).  One weighted
    ``bincount`` then counts the outcomes per value of every attribute
    asked for (:meth:`value_counts`): a split side's outcome counts are a
    prefix or suffix sum over an attribute's values (Equation 7 lifted to
    the predicate lattice), and the attribute's histogram is their row
    sums.  :meth:`histogram`, :meth:`joints` and :meth:`pass_probabilities`
    turn those counts into exactly the floats that
    :meth:`~EmpiricalDistribution.attribute_histogram`,
    :meth:`~EmpiricalDistribution.predicate_joint` and the sequential
    conditioner report.
    """

    def __init__(
        self,
        distribution: EmpiricalDistribution,
        bindings: Sequence[PredicateBinding],
        ranges: RangeVector,
    ) -> None:
        cells = distribution.rows_matching(ranges)
        self._cells = distribution._cells[cells]
        self._weights = distribution._weights[cells]
        self._codes = distribution._outcome_codes(bindings, cells)
        self._ranges = ranges
        self._size = 1 << len(bindings)
        self._smoothing = distribution.smoothing

    def value_counts(self, attribute_indices: Sequence[int]) -> np.ndarray:
        """Outcome counts per value of each attribute's range.

        Rows run through the values of ``attribute_indices[0]``'s range
        in ascending order, then those of the next attribute, and so on;
        column ``s`` counts the rows with outcome bitmask ``s``.  Returns
        a float64 array of integer counts, shape ``(sum of range lengths,
        2**m)``.
        """
        intervals = [self._ranges[index] for index in attribute_indices]
        lengths = [len(interval) for interval in intervals]
        starts = np.cumsum([0] + lengths[:-1])
        lows = np.array([interval.low for interval in intervals])
        values = self._cells[:, attribute_indices] - lows + starts
        counts = np.bincount(
            (values * self._size + self._codes[:, None]).ravel(),
            weights=np.repeat(self._weights, len(intervals)),
            minlength=sum(lengths) * self._size,
        )
        return counts.reshape(-1, self._size)

    def histogram(self, counts: np.ndarray) -> np.ndarray:
        """:meth:`~EmpiricalDistribution.attribute_histogram` of one attribute.

        ``counts`` are the attribute's rows of :meth:`value_counts`.
        """
        return _normalised(counts.sum(axis=1), self._smoothing)

    def joints(self, counts: np.ndarray) -> np.ndarray:
        """:meth:`~EmpiricalDistribution.predicate_joint` of each row set.

        Row ``k`` of ``counts`` holds one row set's outcome counts.
        """
        joints = counts.astype(np.float64)
        if self._smoothing:
            joints += self._smoothing
        empty = counts.sum(axis=1) == 0
        totals = joints.sum(axis=1, keepdims=True)
        totals[empty] = 1.0
        joints /= totals
        joints[empty] = 0.0
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
