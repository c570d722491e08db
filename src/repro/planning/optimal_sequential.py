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
states that hold them, which does exactly the smaller DP's arithmetic; the
charge tables, side truths and split probabilities are array work too, so
a pass makes a fixed number of numpy calls however many attributes and
candidates it scores.

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
                return _CountedScorer(self, query, ranges, at, leaf, bindings, counter)
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
    subproblem keeps its verdict on every side.
    """

    def __init__(
        self,
        planner: OptimalSequentialPlanner,
        query: ConjunctiveQuery,
        ranges: RangeVector,
        at: tuple[int, int] | None,
        leaf: VerdictLeaf | None,
        bindings: list[PredicateBinding],
        counter: OutcomeCounter,
    ) -> None:
        super().__init__(planner, query, ranges, at)
        self._bindings = bindings
        self._counter = counter
        # Each subproblem's verdict and the predicates it proves true;
        # every predicate outside ``bindings`` holds throughout ``ranges``.
        self._leaves: list[VerdictLeaf | None] = []
        held: list[int] = []
        for subproblem in self.subproblems:
            truths = [
                predicate.truth_under(subproblem[index])
                for predicate, index in bindings
            ]
            if leaf is None and Truth.FALSE in truths:
                self._leaves.append(VerdictLeaf(verdict=False))
            elif leaf is None and all(truth is Truth.TRUE for truth in truths):
                self._leaves.append(VerdictLeaf(verdict=True))
            else:
                self._leaves.append(leaf)
            held.append(
                sum(1 << bit for bit, truth in enumerate(truths) if truth is Truth.TRUE)
            )
        self._held = np.array(held, dtype=np.int64)
        self._resolved = np.array([leaf is not None for leaf in self._leaves])
        self._store: _SideStore | None = None

    def sequence(self, subproblem: int) -> tuple[float, PlanNode]:
        if self._store is None:
            self.score_all([[[] for _ in ranges] for ranges in self.subproblems])
            assert self._store is not None
        return self._store.costs[subproblem], self._store.plan(subproblem)

    def score_all(
        self, candidates: list[list[list[int]]]
    ) -> list[list[SideScores | None]]:
        # Segments: every attribute's interval in each subproblem,
        # subproblem by subproblem.
        wanted = [values for per_attribute in candidates for values in per_attribute]
        sizes = [len(values) for values in wanted]
        segments = _Segments(
            np.array(
                [
                    [(interval.low, interval.high) for interval in ranges]
                    for ranges in self.subproblems
                ]
            ),
            sizes,
            np.fromiter(
                itertools.chain.from_iterable(wanted), dtype=np.int64, count=sum(sizes)
            ),
        )
        counter = self._counter
        table = counter.value_counts(segments.lows, segments.lengths)
        probabilities = counter.split_probabilities(
            table, segments.lengths.ravel(), segments.of_candidate, segments.offsets
        ).tolist()
        store = self._store = self._price(table, segments)
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

    def _price(self, table: np.ndarray, segments: "_Segments") -> "_SideStore":
        """Price each subproblem and every candidate side of ``segments``.

        Rows are the subproblems, then every below side, then every above
        side.  The split attribute's predicate may be decided on a side:
        false ends it; true means the side's DP starts with that predicate
        held, as a child starts with those its parent's split decided.  A
        row holding every predicate is a true verdict.
        """
        bindings = self._bindings
        count = len(bindings)
        subproblems = len(self.subproblems)
        sides = 2 * len(segments.points)
        owners = np.concatenate(
            [np.arange(subproblems), segments.owner, segments.owner]
        )
        store = _SideStore(
            subproblems,
            len(segments.points),
            bindings,
            [VerdictLeaf(verdict=False), VerdictLeaf(verdict=True), *self._leaves],
        )
        if not count:
            # The pass's ranges decide the query: every row is its verdict.
            store.costs = [0.0] * len(owners)
            store.rows = -3 - owners
            return store
        # Each row's outcome counts: a difference of two cumulative rows.
        lengths = segments.lengths.ravel()
        starts = np.cumsum(lengths) - lengths
        width = segments.lows.shape[1]
        lower = starts[segments.of_candidate]
        upper = lower + segments.offsets
        cumulative = np.zeros((len(table) + 1, table.shape[1]))
        np.cumsum(table, axis=0, out=cumulative[1:])
        counts = (
            cumulative[
                np.concatenate(
                    [starts[::width] + lengths[::width], upper, lower + segments.span]
                )
            ]
            - cumulative[np.concatenate([starts[::width], lower, upper])]
        )
        # The split attribute's predicate (bit -1: none) on every side,
        # and whether the side's interval proves it true or false.
        bit_of = np.full(len(self.subproblems[0]), -1)
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
        held = self._held[owners] | np.concatenate(
            [np.zeros(subproblems, dtype=np.int64), proven_true << np.maximum(bits, 0)]
        )
        # Leaves: 0 false, 1 true, 2 + k subproblem k's verdict.
        verdicts = np.where(
            self._resolved[owners],
            2 + owners,
            np.where(
                np.concatenate([np.zeros(subproblems, dtype=bool), proven_false]),
                0,
                np.where(held == (1 << count) - 1, 1, -1),
            ),
        )
        priced = verdicts < 0
        costs = np.zeros(len(owners))
        if priced.any():
            splits = np.concatenate(
                [np.full(subproblems, -1), segments.attribute, segments.attribute]
            )
            costs[priced], store.orders, lengths = self._optimal_sides(
                counts[priced],
                self._charge_tables(owners[priced], splits[priced]),
                held[priced],
            )
            store.lengths = lengths
        store.rows = np.where(priced, np.cumsum(priced) - 1, -1 - verdicts)
        store.costs = costs.tolist()
        return store

    def _charge_tables(self, owners: np.ndarray, splits: np.ndarray) -> np.ndarray:
        """Each DP row's :func:`charge_table`.

        Row ``r`` has acquired its subproblem's narrowed attributes and
        attribute ``splits[r]`` (-1: none).  Flat costs are one base table
        with the acquired attributes' rows zeroed; a conditional cost
        model's tables are built once per distinct acquired set, as
        :func:`charge_table` builds them.
        """
        planner = self._planner
        bindings = self._bindings
        if planner.cost_model is None:
            attribute_of = [index for _, index in bindings]
            acquired = np.array(
                [
                    [subproblem.is_acquired(index) for index in attribute_of]
                    for subproblem in self.subproblems
                ]
            )
            zeroed = acquired[owners] | (np.array(attribute_of) == splits[:, None])
            tables = np.where(
                zeroed, 0.0, [planner.schema[index].cost for index in attribute_of]
            )
            return np.broadcast_to(
                tables[:, :, None], (*tables.shape, 1 << len(bindings))
            )
        width = len(self.subproblems[0]) + 1
        keys, inverse = np.unique(owners * width + splits + 1, return_inverse=True)
        tables = []
        for key in keys.tolist():
            owner, split = divmod(key, width)
            acquired = self.subproblems[owner].acquired_indices()
            if split:
                acquired = acquired | {split - 1}
            tables.append(
                charge_table(planner.schema, planner.cost_model, bindings, acquired)
            )
        return np.stack(tables)[inverse.ravel()]

    def _optimal_sides(
        self, counts: np.ndarray, charges: np.ndarray, held: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """OptSeq's order and its Equation 3 cost for each row of ``counts``.

        ``charges[k]`` is row ``k``'s :func:`charge_table`.  Every row
        of set ``k`` satisfies the predicates in bitmask ``held[k]``, and
        the DP runs over the other predicates: their joint
        (:meth:`OutcomeCounter.joints`) sits on the states that hold them
        all, and that sub-lattice of the one DP does exactly the smaller
        DP's arithmetic.  Returns each row's cost, order and order length.
        """
        count = charges.shape[1]
        joints = self._counter.joints(counts, held)
        sums = superset_sums(np.stack([joints, counts]))
        orders = _optimal_orders(sums[0], charges, held)
        costs, _ = replay_orders(self._counter, sums[1], orders, charges, held)
        lengths = count - ((held[:, None] >> np.arange(count)) & 1).sum(axis=1)
        return costs[np.arange(len(counts)), lengths - 1], orders, lengths


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
        self, bounds: np.ndarray, sizes: list[int], points: np.ndarray
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
    """Costs and plans of every row one :meth:`_CountedScorer._price` priced.

    Rows are the pass's subproblems, then its candidate sides: side ``c``
    is row ``offset + c`` and side ``c + total`` is its above side.  A
    row's plan is ``leaves[-1 - rows[r]]`` when ``rows[r]`` is negative,
    else the first ``lengths[d]`` predicates of DP row ``d = rows[r]``'s
    order.
    """

    def __init__(
        self,
        offset: int,
        total: int,
        bindings: list[PredicateBinding],
        leaves: list[VerdictLeaf | None],
    ) -> None:
        self.offset = offset
        self.total = total
        self.bindings = bindings
        self.leaves = leaves
        self.costs: list[float] = []
        self.rows = np.zeros(0, dtype=np.int64)
        self.orders = np.zeros((0, len(bindings)), dtype=np.int64)
        self.lengths = np.zeros(0, dtype=np.int64)

    def plan(self, row: int) -> PlanNode:
        row = int(self.rows[row])
        if row < 0:
            leaf = self.leaves[-1 - row]
            assert leaf is not None
            return leaf
        order = self.orders[row, : self.lengths[row]].tolist()
        return sequential_node_from_order([self.bindings[j] for j in order])


class _CountedSides(SideScores):
    """One attribute's sides in one subproblem, in a :class:`_SideStore`."""

    def __init__(
        self, store: _SideStore, first: int, probabilities: list[float]
    ) -> None:
        self._store = store
        self._below = store.offset + first
        self._above = self._below + store.total
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
