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
split, and on an empirical distribution
:meth:`OptimalSequentialPlanner.split_scorer` derives every side of every
attribute, and every split probability, from one counting pass over the
subproblem's count-table cells, then runs one DP over all of them.

Finding the optimal sequential plan is NP-hard in general (Munagala et al.),
so this planner guards against large ``m``; the evaluation uses it for small
queries (Lab) and GreedySeq elsewhere.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.cost import expected_cost
from repro.core.plan import PlanNode, VerdictLeaf
from repro.core.predicates import Truth
from repro.core.query import ConjunctiveQuery
from repro.core.ranges import Range, RangeVector
from repro.exceptions import PlanningError
from repro.planning.base import (
    SequentialPlanner,
    SideScores,
    SplitScorer,
    resolved_leaf,
    sequential_node_from_order,
)
from repro.probability.base import PredicateBinding, probabilities_below
from repro.probability.empirical import OutcomeCounter
from repro.probability.joint import superset_sums

__all__ = ["OptimalSequentialPlanner"]

# 2**m DP states; past this the joint table and DP are impractical and the
# caller should switch to GreedySeq (the paper does the same).
_MAX_PREDICATES = 18


class OptimalSequentialPlanner(SequentialPlanner):
    """Exact sequential ordering via subset DP on rediscretized predicates."""

    name = "opt-seq"

    def split_scorer(
        self, query: ConjunctiveQuery, ranges: RangeVector
    ) -> SplitScorer:
        """Scores every side of a subproblem from one counting pass.

        Needs a distribution that counts rows
        (:meth:`~repro.probability.base.Distribution.outcome_counter`);
        otherwise each side is planned on its own.
        """
        leaf = resolved_leaf(query, ranges)
        bindings = [] if leaf is not None else query.undetermined_predicates(ranges)
        if len(bindings) <= _MAX_PREDICATES:
            counter = self.distribution.outcome_counter(bindings, ranges)
            if counter is not None:
                return _CountedScorer(self, query, ranges, bindings, leaf, counter)
        return super().split_scorer(query, ranges)

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
        charges = _charges(self, bindings, ranges.acquired_indices())
        sums = superset_sums(self.distribution.predicate_joint(bindings, ranges))
        starts = np.zeros(1, dtype=np.int64)
        order = _optimal_orders(sums[None, :], charges[None], starts)[0].tolist()
        node = sequential_node_from_order([bindings[j] for j in order])
        # Report the cost under the planner's distribution (same yardstick
        # as every other planner) rather than the raw DP value; the two
        # agree exactly when the distribution is unsmoothed.
        return expected_cost(node, self.distribution, ranges, self.cost_model), node


class _CountedScorer(SplitScorer):
    """OptSeq on every split side of a subproblem, from outcome counts.

    A side's row set is the subproblem's rows within one value interval of
    the split attribute, so its outcome counts are a prefix or suffix sum
    of one :meth:`OutcomeCounter.value_counts` table over all attributes,
    and the same table gives every split probability.  The subset DP of
    :meth:`OptimalSequentialPlanner.plan_sequence` then runs once on the
    sides of every attribute, each side charged for its own acquired set,
    and each side's Equation 3 cost is replayed from integer superset sums
    in the order :func:`~repro.core.cost.expected_cost` multiplies it, so
    costs, plans and probabilities equal the per-side planner's bit for
    bit.  A decided subproblem (``leaf``) keeps its verdict on every side.
    """

    def __init__(
        self,
        planner: OptimalSequentialPlanner,
        query: ConjunctiveQuery,
        ranges: RangeVector,
        bindings: list[PredicateBinding],
        leaf: VerdictLeaf | None,
        counter: OutcomeCounter,
    ) -> None:
        super().__init__(planner, query, ranges)
        self._bindings = bindings
        self._leaf = leaf
        self._counter = counter

    def score(self, attribute_index: int, candidates: list[int]) -> SideScores:
        wanted: list[list[int]] = [[] for _ in range(len(self._ranges))]
        wanted[attribute_index] = candidates
        return self.score_all(wanted)[attribute_index]

    def score_all(self, candidates: list[list[int]]) -> list[SideScores | None]:
        indices = [index for index, values in enumerate(candidates) if values]
        scores: list[SideScores | None] = [None] * len(candidates)
        if not indices:
            return scores
        ranges = self._ranges
        counter = self._counter
        table = counter.value_counts(indices)
        # Sides are numbered attribute by attribute, every below side
        # first; side ``k + total`` is the above side of side ``k``.
        store = _SideStore(
            sum(len(candidates[index]) for index in indices), self._bindings, self._leaf
        )
        upper: list[int] = []
        lower: list[int] = []
        first = 0
        for index in indices:
            interval = ranges[index]
            values = candidates[index]
            stop = first + len(interval)
            probabilities = probabilities_below(
                counter.histogram(table[first:stop]), interval, values
            )
            scores[index] = _CountedSides(store, len(upper), probabilities)
            upper.extend(first + value - interval.low for value in values)
            lower.extend([first] * len(values))
            first = stop
        if self._leaf is not None:
            return scores
        cumulative = np.zeros((len(table) + 1, table.shape[1]))
        np.cumsum(table, axis=0, out=cumulative[1:])
        below = cumulative[upper] - cumulative[lower]
        counts = np.concatenate([below, cumulative[len(ranges[indices[0]])] - below])
        self._score_sides(indices, candidates, counts, store)
        return scores

    def _score_sides(
        self,
        indices: list[int],
        candidates: list[list[int]],
        counts: np.ndarray,
        store: "_SideStore",
    ) -> None:
        """Price every side in ``store`` from its row of ``counts``.

        The split attribute's predicate may be decided on a side: false
        ends it; true means the side's DP starts with that predicate
        already held, which is the DP over the other predicates.
        """
        bindings = self._bindings
        bit_of = {index: bit for bit, (_, index) in enumerate(bindings)}
        acquired = self._ranges.acquired_indices()
        total = store.total
        # The DP's sides, the predicate each starts out holding (-1: none)
        # and its split attribute's charge table (the charges depend on
        # the acquired set, so on the split attribute).
        sides: list[int] = []
        held: list[int] = []
        slots: list[int] = []
        tables: list[np.ndarray] = []
        offset = 0
        for index in indices:
            values = candidates[index]
            below = range(offset, offset + len(values))
            offset += len(values)
            tables.append(_charges(self._planner, bindings, acquired | {index}))
            bit = bit_of.get(index)
            if bit is None:
                sides.extend(below)
                sides.extend(side + total for side in below)
                held.extend([-1] * (2 * len(values)))
                slots.extend([len(tables) - 1] * (2 * len(values)))
                continue
            interval = self._ranges[index]
            predicate = bindings[bit][0]
            for below_side, value in zip(below, values):
                for side, side_range in (
                    (below_side, Range(interval.low, value - 1)),
                    (below_side + total, Range(value, interval.high)),
                ):
                    truth = predicate.truth_under(side_range)
                    if truth is Truth.FALSE or (
                        truth is Truth.TRUE and len(bindings) == 1
                    ):
                        store.leaves[side] = VerdictLeaf(verdict=truth is Truth.TRUE)
                        continue
                    sides.append(side)
                    held.append(-1 if truth is Truth.UNDETERMINED else bit)
                    slots.append(len(tables) - 1)
        if not sides:
            return
        costs, orders, lengths = self._optimal_sides(
            counts[sides], np.stack(tables)[slots], np.array(held)
        )
        side_costs = np.zeros(2 * total)
        side_costs[sides] = costs
        store.costs = side_costs.tolist()
        rows = np.full(2 * total, -1)
        rows[sides] = np.arange(len(sides))
        store.rows = rows.tolist()
        store.orders = orders
        store.lengths = lengths.tolist()

    def _optimal_sides(
        self, counts: np.ndarray, charges: np.ndarray, held: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """OptSeq's order and its Equation 3 cost for each row of ``counts``.

        ``charges[k]`` is row ``k``'s :func:`_charges` table.  Where
        ``held[k]`` names a predicate, every row of set ``k`` satisfies
        it and the DP runs over the other predicates: their joint (as
        ``predicate_joint`` gives it without that predicate) sits on the
        states that hold it, and that sub-lattice of the one DP does
        exactly the smaller DP's arithmetic.  Returns each row's cost,
        order and order length.
        """
        counter = self._counter
        count = charges.shape[1]
        starts = np.where(held >= 0, 1 << np.maximum(held, 0), 0)
        joints = np.zeros(counts.shape)
        plain = held < 0
        if plain.any():
            joints[plain] = counter.joints(counts[plain])
        if not plain.all():
            # The states holding each row's predicate, ascending: the
            # smaller lattice's states with the held bit put back in.
            states = np.arange(1 << (count - 1))
            shift = held[~plain, None]
            low = states & ((1 << shift) - 1)
            columns = (states >> shift << (shift + 1)) | low | (1 << shift)
            rows = np.flatnonzero(~plain)[:, None]
            joints[rows, columns] = counter.joints(counts[rows, columns])
        orders = _optimal_orders(superset_sums(joints), charges, starts)
        # Equation 3 for each order, as expected_cost walks a sequential
        # leaf: charge the survivors, then condition on the step passing.
        # The running product and sum go left to right, so each side's
        # floats are the walk's.  Once a survival reaches 0 it stays 0 and
        # adds exactly +0.0, the same total as the walk that stops there.
        bits = 1 << orders
        reached = np.empty_like(bits)
        reached[:, 0] = starts
        np.bitwise_or.accumulate(bits[:, :-1], axis=1, out=reached[:, 1:])
        reached[:, 1:] |= starts[:, None]
        passed = counter.pass_probabilities(superset_sums(counts), reached, bits)
        survival = np.ones(orders.shape)
        np.cumprod(passed[:, :-1], axis=1, out=survival[:, 1:])
        sets = np.arange(len(counts))
        steps = survival * charges[sets[:, None], orders, reached]
        lengths = count - (held >= 0)
        return np.cumsum(steps, axis=1)[sets, lengths - 1], orders, lengths


class _SideStore:
    """Costs and plans of every side one :meth:`_CountedScorer.score_all` priced.

    A side's plan is ``leaf`` for a decided subproblem, else its entry in
    ``leaves``, else the first ``lengths[r]`` predicates of DP row
    ``r = rows[side]``'s order.
    """

    def __init__(
        self,
        total: int,
        bindings: list[PredicateBinding],
        leaf: VerdictLeaf | None,
    ) -> None:
        self.total = total
        self.bindings = bindings
        self.leaf = leaf
        self.costs = [0.0] * (2 * total)
        self.leaves: dict[int, VerdictLeaf] = {}
        self.rows: list[int] = []
        self.orders = np.zeros((0, len(bindings)), dtype=np.int64)
        self.lengths: list[int] = []

    def plan(self, side: int) -> PlanNode:
        leaf = self.leaf if self.leaf is not None else self.leaves.get(side)
        if leaf is not None:
            return leaf
        row = self.rows[side]
        order = self.orders[row, : self.lengths[row]].tolist()
        return sequential_node_from_order([self.bindings[j] for j in order])


class _CountedSides(SideScores):
    """One attribute's sides in a :class:`_SideStore`."""

    def __init__(
        self, store: _SideStore, offset: int, probabilities: list[float]
    ) -> None:
        self._store = store
        self._offset = offset
        self._probabilities = probabilities

    def _side(self, position: int, above: bool) -> int:
        return self._offset + position + above * self._store.total

    def probability_below(self, position: int) -> float:
        return self._probabilities[position]

    def cost(self, position: int, above: bool) -> float:
        return self._store.costs[self._side(position, above)]

    def plan(self, position: int, above: bool) -> PlanNode:
        return self._store.plan(self._side(position, above))


def _charges(
    planner: SequentialPlanner,
    bindings: list[PredicateBinding],
    acquired: frozenset[int],
) -> np.ndarray:
    """``charges[j, S]``: ``C'_j`` once the predicates in ``S`` held.

    Zero for an attribute already acquired.  Under a conditional cost
    model (Section 7) the acquired set is exactly ``acquired`` plus the
    state's attributes, so the DP remains exact.
    """
    cost_model = planner.cost_model
    count = len(bindings)
    size = 1 << count
    attribute_of = [index for _, index in bindings]
    charges = np.zeros((count, size))
    for j, index in enumerate(attribute_of):
        if index in acquired:
            continue
        if cost_model is None:
            charges[j] = planner.schema[index].cost
            continue
        for state in range(size):
            if not state >> j & 1:
                held = {attribute_of[k] for k in range(count) if state >> k & 1}
                charges[j, state] = cost_model.cost(index, acquired | held)
    return charges


def _optimal_orders(
    sums: np.ndarray, charges: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """OptSeq's subset DP over each row of ``sums``; one order per row.

    ``sums[k]`` are row ``k``'s superset sums of its predicate-outcome
    joint.  ``P(phi_j | S)`` is their ratio, or the uninformative prior 0.5
    when no mass satisfies ``S`` (as
    :func:`~repro.probability.joint.conditional_from_superset_sums`).
    ``charges[k]`` is row ``k``'s :func:`_charges` table; a single table
    (first axis of length 1) serves every row.  Row ``k``'s order starts
    from state ``starts[k]`` (predicates already known to hold).  Returns
    an int array: row ``k`` lists predicate indices in plan order, with
    entries past the unheld predicates meaningless.
    """
    sets, size = sums.shape
    count = charges.shape[1]
    best_cost = np.zeros((sets, size))
    best_choice = np.zeros((sets, size), dtype=np.int64)
    # J(S) depends only on J(S | bit), one level up in the lattice, so the
    # levels are swept top down with every state of a level at once.
    for states, free, successors in _lattice_levels(count):
        denominator = sums[:, states, None]
        passed = np.divide(
            sums[:, successors],
            denominator,
            out=np.full((sets, *free.shape), 0.5),
            where=denominator > 0.0,
        )
        values = charges[:, free, states[:, None]] + passed * best_cost[:, successors]
        best_cost[:, states] = values.min(axis=2)
        # argmin keeps the first minimum, as a strict < scan in j order.
        best_choice[:, states] = free[np.arange(len(states)), values.argmin(axis=2)]

    rows = np.arange(sets)
    orders = np.empty((sets, count), dtype=np.int64)
    reached = starts.copy()
    for step in range(count):
        orders[:, step] = best_choice[rows, reached]
        reached |= 1 << orders[:, step]
    return orders


@functools.lru_cache(maxsize=_MAX_PREDICATES + 1)
def _lattice_levels(
    count: int,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The subset lattice over ``count`` predicates, top level first.

    Per level (states holding the same number of predicates): the states
    ascending, each state's unheld predicates ascending (one row per
    state), and the state reached by adding each of them.  Read-only.
    """
    states = np.arange(1 << count)
    held = (states[:, None] >> np.arange(count)) & 1
    level_of = held.sum(axis=1)
    levels = []
    for level in range(count - 1, -1, -1):
        level_states = states[level_of == level]
        free = np.nonzero(held[level_states] == 0)[1].reshape(len(level_states), -1)
        successors = level_states[:, None] | (1 << free)
        for array in (level_states, free, successors):
            array.flags.writeable = False
        levels.append((level_states, free, successors))
    return tuple(levels)
