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
time and runs on many joints at once: GreedySplit (Figure 6) needs OptSeq
on both sides of every candidate split, and on an empirical distribution
:meth:`OptimalSequentialPlanner.split_scorer` derives all sides of one
attribute from a single counting pass over the subproblem's rows.

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
from repro.probability.base import PredicateBinding
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
        """Scores every side of an attribute from one counting pass.

        Needs a distribution that counts rows
        (:meth:`~repro.probability.base.Distribution.outcome_counter`);
        otherwise each side is planned on its own.
        """
        leaf = resolved_leaf(query, ranges)
        if leaf is not None:
            return _DecidedScorer(self, query, ranges, leaf)
        bindings = query.undetermined_predicates(ranges)
        if len(bindings) <= _MAX_PREDICATES:
            counter = self.distribution.outcome_counter(bindings, ranges)
            if counter is not None:
                return _CountedScorer(self, query, ranges, bindings, counter)
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
        order = _optimal_orders(sums[None, :], charges)[0].tolist()
        node = sequential_node_from_order([bindings[j] for j in order])
        # Report the cost under the planner's distribution (same yardstick
        # as every other planner) rather than the raw DP value; the two
        # agree exactly when the distribution is unsmoothed.
        return expected_cost(node, self.distribution, ranges, self.cost_model), node


# A side's plan before it is asked for: a verdict, or an order of predicates.
_SidePlan = VerdictLeaf | list[PredicateBinding]


class _CountedScorer(SplitScorer):
    """OptSeq on every split side of a subproblem, from outcome counts.

    A side's row set is the subproblem's rows within one value interval,
    so its outcome counts are a prefix or suffix sum of
    :meth:`OutcomeCounter.bucket_counts`.  The subset DP of
    :meth:`OptimalSequentialPlanner.plan_sequence` then runs on all sides
    that share a predicate set at once, and each side's Equation 3 cost is
    replayed from integer superset sums in the order
    :func:`~repro.core.cost.expected_cost` multiplies it, so costs and
    plans equal the per-side planner's bit for bit.
    """

    def __init__(
        self,
        planner: OptimalSequentialPlanner,
        query: ConjunctiveQuery,
        ranges: RangeVector,
        bindings: list[PredicateBinding],
        counter: OutcomeCounter,
    ) -> None:
        super().__init__(planner, query, ranges)
        self._bindings = bindings
        self._counter = counter

    def score(self, attribute_index: int, candidates: list[int]) -> SideScores:
        count = len(candidates)
        cumulative = np.cumsum(
            self._counter.bucket_counts(attribute_index, candidates), axis=0
        )
        # Rows 0 .. count-1 are the below sides, then the above sides.
        counts = np.concatenate(
            [cumulative[:-1], cumulative[-1] - cumulative[:-1]]
        )
        bindings = self._bindings
        groups: list[tuple[list[int], np.ndarray, list[PredicateBinding]]] = []
        plans: dict[int, _SidePlan] = {}
        split = next(
            (k for k, (_, index) in enumerate(bindings) if index == attribute_index),
            None,
        )
        if split is None:
            groups.append((list(range(2 * count)), counts, bindings))
        else:
            # The split attribute's predicate may be decided on a side:
            # false ends it, true drops the predicate from the side's DP.
            interval = self._ranges[attribute_index]
            predicate = bindings[split][0]
            undecided: list[int] = []
            decided_true: list[int] = []
            for side in range(2 * count):
                if side < count:
                    side_range = Range(interval.low, candidates[side] - 1)
                else:
                    side_range = Range(candidates[side - count], interval.high)
                truth = predicate.truth_under(side_range)
                if truth is Truth.UNDETERMINED:
                    undecided.append(side)
                elif truth is Truth.FALSE or len(bindings) == 1:
                    plans[side] = VerdictLeaf(verdict=truth is Truth.TRUE)
                else:
                    decided_true.append(side)
            groups.append((undecided, counts[undecided], bindings))
            groups.append(
                (
                    decided_true,
                    _drop_bit(counts[decided_true], split),
                    bindings[:split] + bindings[split + 1 :],
                )
            )
        acquired = self._ranges.acquired_indices() | {attribute_index}
        costs = [0.0] * (2 * count)
        for sides, group_counts, group_bindings in groups:
            if not sides:
                continue
            group_costs, orders = self._score_sides(
                group_counts, group_bindings, acquired
            )
            for side, cost, order in zip(sides, group_costs, orders.tolist()):
                costs[side] = cost
                plans[side] = [group_bindings[j] for j in order]
        return _CountedSides(count, costs, plans)

    def _score_sides(
        self,
        counts: np.ndarray,
        bindings: list[PredicateBinding],
        acquired: frozenset[int],
    ) -> tuple[list[float], np.ndarray]:
        """OptSeq's order and its Equation 3 cost for each row of ``counts``."""
        charges = _charges(self._planner, bindings, acquired)
        orders = _optimal_orders(superset_sums(self._counter.joints(counts)), charges)
        # Equation 3 for each order, as _expected_cost walks a sequential
        # leaf: charge the survivors, then condition on the step passing.
        # Once a survival reaches 0 it stays 0 and adds exactly +0.0, the
        # same total as the walk that stops there.
        row_sums = superset_sums(counts)
        total = np.zeros(len(counts))
        survival = np.ones(len(counts))
        reached = np.zeros(len(counts), dtype=np.int64)
        for choice in orders.T:
            total += survival * charges[choice, reached]
            bits = 1 << choice
            survival *= self._counter.pass_probabilities(row_sums, reached, bits)
            reached |= bits
        return total.tolist(), orders


class _DecidedScorer(SplitScorer):
    """Sides of a decided subproblem: narrowing a range keeps the verdict."""

    def __init__(
        self,
        planner: OptimalSequentialPlanner,
        query: ConjunctiveQuery,
        ranges: RangeVector,
        leaf: VerdictLeaf,
    ) -> None:
        super().__init__(planner, query, ranges)
        self._leaf = leaf

    def score(self, attribute_index: int, candidates: list[int]) -> SideScores:
        sides = 2 * len(candidates)
        plans: dict[int, _SidePlan] = dict.fromkeys(range(sides), self._leaf)
        return _CountedSides(len(candidates), [0.0] * sides, plans)


class _CountedSides(SideScores):
    """Precomputed side costs; plans are built only when asked for."""

    def __init__(
        self, count: int, costs: list[float], plans: dict[int, _SidePlan]
    ) -> None:
        self._count = count
        self._costs = costs
        self._plans = plans

    def cost(self, position: int, above: bool) -> float:
        return self._costs[position + above * self._count]

    def plan(self, position: int, above: bool) -> PlanNode:
        plan = self._plans[position + above * self._count]
        if isinstance(plan, VerdictLeaf):
            return plan
        return sequential_node_from_order(plan)


def _drop_bit(counts: np.ndarray, bit: int) -> np.ndarray:
    """Outcome counts with predicate ``bit`` summed out (higher bits shift down)."""
    sets, size = counts.shape
    low = 1 << bit
    return counts.reshape(sets, size // (2 * low), 2, low).sum(axis=2).reshape(
        sets, size // 2
    )


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


def _optimal_orders(sums: np.ndarray, charges: np.ndarray) -> np.ndarray:
    """OptSeq's subset DP over each row of ``sums``; one order per row.

    ``sums[k]`` are row ``k``'s superset sums of its predicate-outcome
    joint.  ``P(phi_j | S)`` is their ratio, or the uninformative prior 0.5
    when no mass satisfies ``S`` (as
    :func:`~repro.probability.joint.conditional_from_superset_sums`).
    Returns an int array: row ``k`` lists predicate indices in plan order.
    """
    sets, size = sums.shape
    count = len(charges)
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
        values = charges[free, states[:, None]] + passed * best_cost[:, successors]
        best_cost[:, states] = values.min(axis=2)
        # argmin keeps the first minimum, as a strict < scan in j order.
        best_choice[:, states] = free[np.arange(len(states)), values.argmin(axis=2)]

    rows = np.arange(sets)
    orders = np.empty((sets, count), dtype=np.int64)
    reached = np.zeros(sets, dtype=np.int64)
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
