"""OptSeq: the optimal sequential planner (Section 4.1.2).

Any conjunctive query can be *rediscretized* onto binary attributes
``X'_i = 1 iff predicate phi_i holds``; the optimal order in which to
evaluate the predicates then follows from a dynamic program over the lattice
of satisfied-predicate sets.  Because evaluation stops at the first failing
predicate, the only states that matter are "the predicates in S all held",
giving the recursion

    J(S) = min over j not in S of  C'_j + P(phi_j | S) * J(S + {j})

with ``J(all) = 0``.  The conditionals come from one joint pmf over
predicate-outcome bitmasks (``Distribution.predicate_joint``) turned into
superset sums (:mod:`repro.probability.joint`), so each planning call costs
``O(m * 2**m)`` DP work plus one pass over the subproblem's rows — exactly
the complexity the paper reports.

The DP sweeps the lattice one level (number of held predicates) at a
time and runs on many joints at once, each with its own charges:
GreedySplit (Figure 6) needs OptSeq on both sides of every candidate
split, and GreedyPlan (Figure 7) scores the root, then both children of
each expansion, in one pass.  On an empirical distribution
:meth:`OptimalSequentialPlanner.split_scorer` derives every side of every
attribute of every subproblem in the pass, every split probability and
each subproblem's own unsplit order from one counting pass over the
parent's count-table cells, then runs one DP over all of them.  A side or
child whose ranges decide predicates true runs on the sub-lattice of
states that hold them, which does exactly the smaller DP's arithmetic.

A pass has two parts.  Its *layout* is what it derives from the schema,
the cost model, the query, its ranges and its candidate splits without
counting a row: the count table's segments and the cumulative rows each
side's counts are read from, side truths, verdicts and held predicates,
charge tables, order lengths, and where the joints and the split
probabilities' padded rows go.  ``_pass_layout`` builds a layout once
per distinct input and keeps the most recent ``_LAYOUTS`` of them in a
bounded LRU memo, read-only and shared by every planner, because the
Sec. 7 stream loop builds a new planner for every refit and its windows
keep meeting the same layouts.  The counted part runs on every pass: the
counter's tables, the joints, the DP and the Equation 3 replay.  Both
parts are array work, so a pass makes a fixed number of numpy calls
however many attributes and candidates it scores, and fewer when its
layout is warm.

Finding the optimal sequential plan is NP-hard in general (Munagala et al.),
so this planner guards against large ``m``; the evaluation uses it for small
queries (Lab) and GreedySeq elsewhere.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

import numpy as np

from repro.core.attributes import Schema
from repro.core.cost import expected_cost
from repro.core.cost_models import AcquisitionCostModel
from repro.core.plan import PlanNode, VerdictLeaf
from repro.core.predicates import Truth
from repro.core.query import ConjunctiveQuery
from repro.core.ranges import RangeVector
from repro.exceptions import PlanningError
from repro.planning.base import (
    SequentialPlanner,
    SideScores,
    SplitScorer,
    resolved_leaf,
    sequential_node_from_order,
)
from repro.probability.base import PredicateBinding
from repro.probability.empirical import OutcomeCounter
from repro.probability.joint import superset_sums

__all__ = ["OptimalSequentialPlanner", "charge_table", "replay_orders"]

# 2**m DP states; past this the joint table and DP are impractical and the
# caller should switch to GreedySeq (the paper does the same).
_MAX_PREDICATES = 18

# Scoring-pass layouts kept by ``_pass_layout``, about 8 KiB each.  The
# benchmark's stream refits meet 18 distinct layouts; its plan churn
# meets 326 in 12,000 requests, and 128 entries keep 74 % of those
# passes warm (64 entries: 24 %).
_LAYOUTS = 128


class OptimalSequentialPlanner(SequentialPlanner):
    """Exact sequential ordering via subset DP on rediscretized predicates."""

    name = "opt-seq"

    def split_scorer(
        self,
        query: ConjunctiveQuery,
        ranges: RangeVector,
        at: tuple[int, int] | None = None,
    ) -> SplitScorer:
        """Scores a whole pass from one counting pass and one DP.

        Needs a distribution that counts rows
        (:meth:`~repro.probability.base.Distribution.outcome_counter`);
        otherwise each side is planned on its own.
        """
        leaf = resolved_leaf(query, ranges)
        bindings = [] if leaf is not None else query.undetermined_predicates(ranges)
        if len(bindings) <= _MAX_PREDICATES:
            counter = self.distribution.outcome_counter(bindings, ranges, at)
            if counter is not None:
                return _CountedScorer(self, query, ranges, at, counter)
        return super().split_scorer(query, ranges, at)

    def plan_sequence(
        self, query: ConjunctiveQuery, ranges: RangeVector
    ) -> tuple[float, PlanNode]:
        leaf = resolved_leaf(query, ranges)
        if leaf is not None:
            return 0.0, leaf

        bindings = query.undetermined_predicates(ranges)
        count = len(bindings)
        if count > _MAX_PREDICATES:
            raise PlanningError(
                f"OptSeq over {count} predicates needs 2**{count} DP states; "
                "use GreedySequentialPlanner for large queries"
            )
        charges = charge_table(
            self.schema, self.cost_model, bindings, ranges.acquired_indices()
        )
        sums = superset_sums(self.distribution.predicate_joint(bindings, ranges))
        starts = np.zeros(1, dtype=np.int64)
        order = _optimal_orders(sums[None, :], charges[None], starts)[0].tolist()
        node = sequential_node_from_order([bindings[j] for j in order])
        # Report the cost under the planner's distribution (same yardstick
        # as every other planner) rather than the raw DP value; the two
        # agree exactly when the distribution is unsmoothed.
        return expected_cost(node, self.distribution, ranges, self.cost_model), node


class _CountedScorer(SplitScorer):
    """OptSeq on every side of a pass's subproblems, from outcome counts.

    The pass's cells are those of ``ranges``, labelled by child when the
    pass scores both children of an expansion.  A side's row set is one
    subproblem's rows within one value interval of the split attribute,
    so its outcome counts are a prefix or suffix sum of one
    :meth:`OutcomeCounter.value_counts` table over every subproblem and
    attribute, and the same table gives every split probability.  Each
    subproblem's whole row set is one more row, for its own unsplit plan.
    The subset DP of :meth:`OptimalSequentialPlanner.plan_sequence` then
    runs once, over the pass's predicates, on all of those rows, each
    charged for its own acquired set, and each row's Equation 3 cost is
    replayed from integer superset sums in the order
    :func:`~repro.core.cost.expected_cost` multiplies it.  So costs, plans
    and probabilities equal the per-side planner's bit for bit.  A decided
    subproblem keeps its verdict on every side.  Everything a pass derives
    from its inputs without counting a row is its :class:`_PassLayout`,
    which :func:`_pass_layout` memoises; a pass itself only counts.
    """

    def __init__(
        self,
        planner: OptimalSequentialPlanner,
        query: ConjunctiveQuery,
        ranges: RangeVector,
        at: tuple[int, int] | None,
        counter: OutcomeCounter,
    ) -> None:
        super().__init__(planner, query, ranges, at)
        self._ranges = ranges
        self._at = at
        self._counter = counter
        self._store: _SideStore | None = None

    def sequence(self, subproblem: int) -> tuple[float, PlanNode]:
        if self._store is None:
            self.score_all([[[] for _ in ranges] for ranges in self.subproblems])
            assert self._store is not None
        return self._store.costs[subproblem], self._store.plan(subproblem)

    def score_all(
        self, candidates: list[list[list[int]]]
    ) -> list[list[SideScores | None]]:
        planner = self._planner
        counter = self._counter
        wanted = [values for per_attribute in candidates for values in per_attribute]
        layout = _pass_layout(
            planner.schema,
            planner.cost_model,
            self._query,
            self._ranges,
            self._at,
            tuple(len(values) for values in wanted),
            tuple(itertools.chain.from_iterable(wanted)),
            counter.smoothing > 0.0,
        )
        table = counter.value_counts(layout.shifts, layout.values)
        probabilities = counter.split_probabilities(
            table, layout.padding, layout.of_candidate, layout.offsets
        ).tolist()
        store = self._store = self._price(table, layout)
        scores: list[list[SideScores | None]] = []
        first = 0
        for per_attribute in candidates:
            scores.append([])
            for values in per_attribute:
                if not values:
                    scores[-1].append(None)
                    continue
                last = first + len(values)
                scores[-1].append(
                    _CountedSides(store, first, probabilities[first:last])
                )
                first = last
        return scores

    def _price(self, table: np.ndarray, layout: "_PassLayout") -> "_SideStore":
        """OptSeq's order and its Equation 3 cost for each row of ``layout``.

        A priced row's outcome counts are the difference of two
        cumulative rows of ``table``.  Every row of DP set ``k``
        satisfies the predicates in bitmask ``held[k]``, and the DP runs
        over the other predicates: their joint
        (:meth:`OutcomeCounter.joints`) sits on the states that hold them
        all, and that sub-lattice of the one DP does exactly the smaller
        DP's arithmetic.
        """
        if not layout.dp_rows:
            return _SideStore(
                layout,
                [0.0] * len(layout.rows),
                np.zeros((0, len(layout.bindings)), dtype=np.int64),
            )
        counter = self._counter
        cumulative = np.zeros((len(table) + 1, table.shape[1]))
        np.cumsum(table, axis=0, out=cumulative[1:])
        counts = cumulative[layout.upper] - cumulative[layout.lower]
        joints = counter.joints(counts, layout.columns)
        sums = superset_sums(np.stack([joints, counts]))
        orders = _optimal_orders(sums[0], layout.charges, layout.held)
        replayed, _ = replay_orders(
            counter, sums[1], orders, layout.charges, layout.held
        )
        costs = np.zeros(len(layout.rows))
        costs[layout.priced] = replayed.take(layout.last)
        return _SideStore(layout, costs.tolist(), orders)


@functools.lru_cache(maxsize=_LAYOUTS)
def _pass_layout(
    schema: Schema,
    cost_model: AcquisitionCostModel | None,
    query: ConjunctiveQuery,
    ranges: RangeVector,
    at: tuple[int, int] | None,
    sizes: tuple[int, ...],
    points: tuple[int, ...],
    smoothed: bool,
) -> "_PassLayout":
    """The :class:`_PassLayout` of one scoring pass, memoised.

    A pure function of its arguments: the pass's subproblems are
    ``ranges`` (split at ``at``), ``points`` its candidate splits, the
    first ``sizes[0]`` for attribute 0 of subproblem 0 and so on, and
    ``smoothed`` whether its distribution smooths.  The bounded cache is
    shared by every planner: the stream loop builds a new planner for
    every refit, and its windows keep meeting the same layouts.
    """
    return _PassLayout(schema, cost_model, query, ranges, at, sizes, points, smoothed)


class _PassLayout:
    """What one scoring pass derives from its inputs without a row.

    Rows are the pass's subproblems, then every below side, then every
    above side (see :class:`_SideStore`).  The split attribute's
    predicate may be decided on a side: false ends it; true means the
    side's DP starts with that predicate held, as a child starts with
    those its parent's split decided.  A row holding every predicate is a
    true verdict.  :meth:`OutcomeCounter.value_counts` reads ``shifts``
    and ``values``, :meth:`OutcomeCounter.split_probabilities`
    ``padding``, ``of_candidate`` and ``offsets``, and the DP the
    ``dp_rows`` priced rows: the cumulative rows ``upper`` and ``lower``
    whose difference is each one's counts, their charge tables, held
    predicates, order lengths and joint ``columns``.  Every array is
    read-only, because the layout is shared between passes, and index
    arrays are int32, because the memo keeps many layouts.
    """

    __slots__ = (
        "bindings",
        "leaves",
        "offset",
        "total",
        "shifts",
        "values",
        "padding",
        "of_candidate",
        "offsets",
        "priced",
        "rows",
        "dp_rows",
        "upper",
        "lower",
        "held",
        "charges",
        "lengths",
        "last",
        "columns",
    )

    def __init__(
        self,
        schema: Schema,
        cost_model: AcquisitionCostModel | None,
        query: ConjunctiveQuery,
        ranges: RangeVector,
        at: tuple[int, int] | None,
        sizes: tuple[int, ...],
        points: tuple[int, ...],
        smoothed: bool,
    ) -> None:
        leaf = resolved_leaf(query, ranges)
        bindings = (
            () if leaf is not None else tuple(query.undetermined_predicates(ranges))
        )
        subproblems = (ranges,) if at is None else ranges.split(*at)
        count = len(bindings)
        # Each subproblem's verdict and the predicates it proves true;
        # every predicate outside ``bindings`` holds throughout ``ranges``.
        leaves: list[VerdictLeaf | None] = []
        proven: list[int] = []
        for subproblem in subproblems:
            truths = [
                predicate.truth_under(subproblem[index])
                for predicate, index in bindings
            ]
            if leaf is None and Truth.FALSE in truths:
                leaves.append(VerdictLeaf(verdict=False))
            elif leaf is None and all(truth is Truth.TRUE for truth in truths):
                leaves.append(VerdictLeaf(verdict=True))
            else:
                leaves.append(leaf)
            proven.append(
                sum(1 << bit for bit, truth in enumerate(truths) if truth is Truth.TRUE)
            )
        # Segments: every attribute's interval in each subproblem,
        # subproblem by subproblem.
        segments = _Segments(
            np.array(
                [
                    [(interval.low, interval.high) for interval in subproblem]
                    for subproblem in subproblems
                ]
            ),
            sizes,
            np.array(points, dtype=np.int64),
        )
        self.bindings = bindings
        # Leaves: 0 false, 1 true, 2 + k subproblem k's verdict.
        self.leaves = (VerdictLeaf(verdict=False), VerdictLeaf(verdict=True), *leaves)
        self.offset = len(subproblems)
        self.total = len(points)
        lengths = segments.lengths.ravel()
        starts = np.cumsum(lengths) - lengths
        self.shifts = starts.reshape(segments.lows.shape) - segments.lows
        self.values = int(lengths.sum())
        self.padding = OutcomeCounter.segment_padding(lengths)
        self.of_candidate = segments.of_candidate.astype(np.int32)
        self.offsets = segments.offsets.astype(np.int32)
        owners = np.concatenate(
            [np.arange(len(subproblems)), segments.owner, segments.owner]
        )
        if count:
            verdicts, held = _side_verdicts(
                bindings,
                subproblems,
                np.array(proven, dtype=np.int64),
                np.array([leaf is not None for leaf in leaves]),
                segments,
                owners,
            )
        else:
            # The pass's ranges decide the query: every row is its verdict.
            verdicts, held = 2 + owners, np.zeros(len(owners), dtype=np.int64)
        priced = verdicts < 0
        self.priced = priced
        self.rows = np.where(priced, np.cumsum(priced) - 1, -1 - verdicts).astype(
            np.int32
        )
        self.dp_rows = int(np.count_nonzero(priced))
        # Each row's outcome counts: a difference of two cumulative rows.
        width = segments.lows.shape[1]
        lower = starts[segments.of_candidate]
        upper = lower + segments.offsets
        self.upper = np.concatenate(
            [starts[::width] + lengths[::width], upper, lower + segments.span]
        )[priced].astype(np.int32)
        self.lower = np.concatenate([starts[::width], lower, upper])[priced].astype(
            np.int32
        )
        held = self.held = held[priced]
        splits = np.concatenate(
            [np.full(len(subproblems), -1), segments.attribute, segments.attribute]
        )
        self.charges = (
            _charge_tables(
                schema,
                cost_model,
                bindings,
                subproblems,
                owners[priced],
                splits[priced],
            )
            if self.dp_rows
            else np.zeros((0, count, 1 << count))
        )
        lengths = count - ((held[:, None] >> np.arange(count)) & 1).sum(axis=1)
        self.lengths = lengths.astype(np.int32)
        # Each DP row's cost: its last step's, flat in the replayed costs.
        self.last = (np.arange(self.dp_rows) * count + lengths - 1).astype(np.int32)
        self.columns = OutcomeCounter.joint_columns(held, count) if smoothed else ()
        for array in (
            self.shifts,
            *self.padding,
            self.of_candidate,
            self.offsets,
            self.priced,
            self.rows,
            self.upper,
            self.lower,
            self.held,
            self.charges,
            self.lengths,
            self.last,
            *(array for group in self.columns for array in group),
        ):
            array.flags.writeable = False


def _side_verdicts(
    bindings: tuple[PredicateBinding, ...],
    subproblems: tuple[RangeVector, ...],
    proven: np.ndarray,
    resolved: np.ndarray,
    segments: "_Segments",
    owners: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's verdict (-1: none) and the predicates it holds.

    ``proven[k]`` is the bitmask of the predicates subproblem ``k``
    proves true, ``resolved[k]`` whether it has a verdict.  A row's
    verdict indexes :attr:`_PassLayout.leaves`.
    """
    count = len(bindings)
    subproblem_rows = len(subproblems)
    sides = 2 * len(segments.points)
    # The split attribute's predicate (bit -1: none) on every side,
    # and whether the side's interval proves it true or false.
    bit_of = np.full(len(subproblems[0]), -1)
    bit_of[[index for _, index in bindings]] = np.arange(count)
    bits = bit_of[segments.attribute]
    bits = np.concatenate([bits, bits])
    lows = np.concatenate([segments.low, segments.points])
    highs = np.concatenate([segments.points - 1, segments.low + segments.span - 1])
    # decided[2j + t, s]: side s proves predicate j true (t = 0) or false.
    decided = np.concatenate(
        [
            truths
            for predicate, _ in bindings
            for truths in predicate.truths_under(lows, highs)
        ]
    ).reshape(2 * count, sides)
    sides_of = np.arange(sides)
    proven_true = decided[2 * bits, sides_of] & (bits >= 0)
    proven_false = decided[2 * bits + 1, sides_of] & (bits >= 0)
    held = proven[owners] | np.concatenate(
        [np.zeros(subproblem_rows, dtype=np.int64), proven_true << np.maximum(bits, 0)]
    )
    verdicts = np.where(
        resolved[owners],
        2 + owners,
        np.where(
            np.concatenate([np.zeros(subproblem_rows, dtype=bool), proven_false]),
            0,
            np.where(held == (1 << count) - 1, 1, -1),
        ),
    )
    return verdicts, held


def _charge_tables(
    schema: Schema,
    cost_model: AcquisitionCostModel | None,
    bindings: tuple[PredicateBinding, ...],
    subproblems: tuple[RangeVector, ...],
    owners: np.ndarray,
    splits: np.ndarray,
) -> np.ndarray:
    """Each DP row's :func:`charge_table`.

    Row ``r`` has acquired its subproblem's narrowed attributes and
    attribute ``splits[r]`` (-1: none).  Flat costs are one base table
    with the acquired attributes' rows zeroed; a conditional cost
    model's tables are built once per distinct acquired set, as
    :func:`charge_table` builds them.
    """
    if cost_model is None:
        attribute_of = [index for _, index in bindings]
        acquired = np.array(
            [
                [subproblem.is_acquired(index) for index in attribute_of]
                for subproblem in subproblems
            ]
        )
        zeroed = acquired[owners] | (np.array(attribute_of) == splits[:, None])
        tables = np.where(zeroed, 0.0, [schema[index].cost for index in attribute_of])
        return np.broadcast_to(tables[:, :, None], (*tables.shape, 1 << len(bindings)))
    width = len(subproblems[0]) + 1
    keys, inverse = np.unique(owners * width + splits + 1, return_inverse=True)
    tables = []
    for key in keys.tolist():
        owner, split = divmod(key, width)
        acquired = subproblems[owner].acquired_indices()
        if split:
            acquired = acquired | {split - 1}
        tables.append(charge_table(schema, cost_model, bindings, acquired))
    return np.stack(tables)[inverse.ravel()]


class _Segments:
    """The value segments and candidate splits of one scoring pass.

    Segment ``(k, i)`` is attribute ``i``'s interval in subproblem ``k``:
    ``lengths[k, i]`` values from ``lows[k, i]``.  The segments'
    candidates follow each other in ``points``, segment by segment
    (row-major); candidate ``c`` lies in flat segment ``of_candidate[c]``,
    ``offsets[c]`` values above its low end, and ``owner``, ``attribute``,
    ``low`` and ``span`` are its segment's subproblem, attribute, low end
    and length.
    """

    def __init__(
        self, bounds: np.ndarray, sizes: Sequence[int], points: np.ndarray
    ) -> None:
        self.lows = bounds[:, :, 0]
        self.lengths = bounds[:, :, 1] - self.lows + 1
        self.points = points
        self.of_candidate = np.repeat(np.arange(self.lows.size), sizes)
        self.owner, self.attribute = np.divmod(self.of_candidate, self.lows.shape[1])
        self.low = self.lows.ravel()[self.of_candidate]
        self.span = self.lengths.ravel()[self.of_candidate]
        self.offsets = points - self.low


class _SideStore:
    """Costs and plans of every row of one pass's :class:`_PassLayout`.

    Rows are the pass's subproblems, then its candidate sides: side ``c``
    is row ``offset + c`` and side ``c + total`` is its above side.  A
    row's plan is ``leaves[-1 - rows[r]]`` when ``rows[r]`` is negative,
    else the first ``lengths[d]`` predicates of DP row ``d = rows[r]``'s
    order (``orders[d]``); every name but ``costs`` and ``orders`` is the
    layout's.
    """

    def __init__(
        self, layout: _PassLayout, costs: list[float], orders: np.ndarray
    ) -> None:
        self.layout = layout
        self.costs = costs
        self.orders = orders

    def plan(self, row: int) -> PlanNode:
        layout = self.layout
        row = int(layout.rows[row])
        if row < 0:
            leaf = layout.leaves[-1 - row]
            assert leaf is not None
            return leaf
        order = self.orders[row, : layout.lengths[row]].tolist()
        return sequential_node_from_order([layout.bindings[j] for j in order])


class _CountedSides(SideScores):
    """One attribute's sides in one subproblem, in a :class:`_SideStore`."""

    def __init__(
        self, store: _SideStore, first: int, probabilities: list[float]
    ) -> None:
        self._store = store
        self._below = store.layout.offset + first
        self._above = self._below + store.layout.total
        self._probabilities = probabilities
        self._costs = store.costs

    def probability_below(self, position: int) -> float:
        return self._probabilities[position]

    def cost(self, position: int, above: bool) -> float:
        return self._costs[(self._above if above else self._below) + position]

    def plan(self, position: int, above: bool) -> PlanNode:
        return self._store.plan((self._above if above else self._below) + position)


def charge_table(
    schema: Schema,
    cost_model: AcquisitionCostModel | None,
    bindings: Sequence[PredicateBinding],
    acquired: frozenset[int],
) -> np.ndarray:
    """``charges[j, S]``: ``C'_j`` once the predicates in ``S`` held.

    Zero for an attribute already acquired.  Under a conditional cost
    model (Section 7) the acquired set is exactly ``acquired`` plus the
    state's attributes, so the DP remains exact.
    """
    count = len(bindings)
    size = 1 << count
    attribute_of = [index for _, index in bindings]
    charges = np.zeros((count, size))
    for j, index in enumerate(attribute_of):
        if index in acquired:
            continue
        if cost_model is None:
            charges[j] = schema[index].cost
            continue
        for state in range(size):
            if not state >> j & 1:
                held = {attribute_of[k] for k in range(count) if state >> k & 1}
                charges[j, state] = cost_model.cost(index, acquired | held)
    return charges


def replay_orders(
    counter: OutcomeCounter,
    sums: np.ndarray,
    orders: np.ndarray,
    charges: np.ndarray,
    held: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Equation 3 of given predicate orders, replayed from outcome counts.

    Row ``k`` evaluates predicates ``orders[k]`` (indices into the
    counter's bindings) over a row set whose superset sums of outcome
    counts are ``sums[k]`` and whose rows all hold the predicates in
    bitmask ``held[k]``; ``charges[k]`` is its :func:`charge_table`.  As
    :func:`~repro.core.cost.expected_cost` walks a sequential leaf, each
    step charges the survivors and then conditions on passing: the
    running product and sum go left to right, so the floats are the
    walk's.  Once a survival reaches 0 it stays 0 and adds exactly +0.0,
    the same total as the walk that stops there.  Returns each step's
    running cost and its pass probability given the steps before it
    (:meth:`OutcomeCounter.pass_probabilities`).
    """
    bits = 1 << orders
    reached = np.empty_like(bits)
    reached[:, 0] = held
    np.bitwise_or.accumulate(bits[:, :-1], axis=1, out=reached[:, 1:])
    reached[:, 1:] |= held[:, None]
    passed = counter.pass_probabilities(sums, reached, bits)
    survival = np.ones(orders.shape)
    np.cumprod(passed[:, :-1], axis=1, out=survival[:, 1:])
    sets = np.arange(len(orders))
    steps = survival * charges[sets[:, None], orders, reached]
    return np.cumsum(steps, axis=1), passed


def _optimal_orders(
    sums: np.ndarray, charges: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """OptSeq's subset DP over each row of ``sums``; one order per row.

    ``sums[k]`` are row ``k``'s superset sums of its predicate-outcome
    joint.  ``P(phi_j | S)`` is their ratio, or the uninformative prior 0.5
    when no mass satisfies ``S`` (as
    :func:`~repro.probability.joint.conditional_from_superset_sums`).
    ``charges[k]`` is row ``k``'s :func:`charge_table`; a single table
    (first axis of length 1) serves every row.  Row ``k``'s order starts
    from state ``starts[k]`` (predicates already known to hold).  Returns
    an int array: row ``k`` lists predicate indices in plan order, with
    entries past the unheld predicates meaningless.
    """
    sets, size = sums.shape
    count = charges.shape[1]
    states, free, successors, levels = _lattice(count)
    # Every transition's pass probability and charge, all levels at once.
    denominator = sums[:, states]
    positive = denominator > 0.0
    passed = np.where(
        positive, sums[:, successors] / np.where(positive, denominator, 1.0), 0.5
    )
    charged = charges[:, free, states]
    best_cost = np.zeros((sets, size))
    best_choice = np.zeros((sets, size), dtype=np.int64)
    # J(S) depends only on J(S | bit), one level up in the lattice, so the
    # levels are swept top down with every state of a level at once.
    for level, level_free, first, last in levels:
        values = (
            charged[:, first:last]
            + passed[:, first:last] * best_cost[:, successors[first:last]]
        ).reshape(sets, *level_free.shape)
        # argmin keeps the first minimum, as a strict < scan in j order.
        choices = values.argmin(axis=2)
        best_cost[:, level] = values.reshape(-1, level_free.shape[1])[
            np.arange(choices.size), choices.ravel()
        ].reshape(choices.shape)
        best_choice[:, level] = level_free[np.arange(len(level)), choices]

    rows = np.arange(sets)
    orders = np.empty((sets, count), dtype=np.int64)
    reached = starts.copy()
    for step in range(count):
        orders[:, step] = best_choice[rows, reached]
        reached |= 1 << orders[:, step]
    return orders


@functools.lru_cache(maxsize=_MAX_PREDICATES + 1)
def _lattice(
    count: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[tuple, ...]]:
    """The subset lattice's transitions over ``count`` predicates.

    Transitions run level by level from the top (states holding the same
    number of predicates), each level's states ascending and each state's
    unheld predicates ascending.  Returns every transition's state,
    predicate and successor state, and per level its states, their unheld
    predicates (one row per state) and its slice of the transitions.
    Read-only.
    """
    everything = np.arange(1 << count)
    held = (everything[:, None] >> np.arange(count)) & 1
    level_of = held.sum(axis=1)
    states, free, levels = [], [], []
    first = 0
    for level in range(count - 1, -1, -1):
        level_states = everything[level_of == level]
        level_free = np.nonzero(held[level_states] == 0)[1].reshape(
            len(level_states), -1
        )
        states.append(np.repeat(level_states, level_free.shape[1]))
        free.append(level_free.ravel())
        levels.append((level_states, level_free, first, first + level_free.size))
        first += level_free.size
    arrays = [
        np.concatenate(states or [everything[:0]]),
        np.concatenate(free or [everything[:0]]),
    ]
    arrays.append(arrays[0] | (1 << arrays[1]))
    for array in [*arrays, *(part for level in levels for part in level[:2])]:
        array.flags.writeable = False
    return arrays[0], arrays[1], arrays[2], tuple(levels)
