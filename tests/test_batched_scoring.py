"""Edge cases of GreedySplit's batched side scoring.

OptSeq's split scorer prices every side of every attribute it is asked
for from one count table and one subset DP.
Each case here is checked against ``_reference_greedy_split`` (one
``plan_sequence`` per side, scalar DP) for bit-equal choices, costs and
counters, and against the scalar planner side by side:

- a board cost model, where splitting on one attribute powers the board
  and cheapens the predicates' reads;
- two predicates decided true on different sides, whose sides run in the
  same DP as sub-lattices that start with their predicate held;
- sides without a single training row, raw and smoothed;
- the same rows in another order.

It also pins Equation 7 to one implementation: the scalar
``split_probability``, the planners' ``split_probabilities`` and the
counted scorer's batched probabilities agree to the last bit on 12- and
300-value domains, whose histogram sums take numpy's blocked and halved
pairwise orders that the batched row sums reproduce.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

import repro.planning.optimal_sequential as optimal_module
from repro.core import Attribute, ConjunctiveQuery, RangePredicate, RangeVector, Schema
from repro.core.cost_models import BoardAwareCostModel
from repro.core.ranges import Range
from repro.planning import (
    CorrSeqPlanner,
    GreedyConditionalPlanner,
    OptimalSequentialPlanner,
    SplitPointPolicy,
    greedy_split,
)
from repro.planning.base import PlannerStats, split_probabilities
from repro.probability import (
    ChowLiuDistribution,
    EmpiricalDistribution,
    IndependenceDistribution,
)
from repro.probability.empirical import _row_sums
from tests.test_split_scoring import (
    _ran_for_root_and_every_expansion,
    _reference_greedy_split,
    _reference_pass,
    _same_choice,
    _same_sides,
)


def _matches_reference(query, ranges, distribution, base, model=None):
    policy = SplitPointPolicy.full(distribution.schema).with_query_boundaries(query)
    stats, reference_stats = PlannerStats(), PlannerStats()
    actual = greedy_split(query, ranges, distribution, base, policy, stats, model)
    expected = _reference_greedy_split(
        query, ranges, distribution, base, policy, reference_stats, model
    )
    _same_choice(actual, expected)
    assert stats == reference_stats
    _same_sides(base, query, ranges, policy)
    return actual


def _lattice_sizes(base, query, ranges):
    """The predicate counts of the DPs one scoring pass runs."""
    sizes: list[int] = []
    original = optimal_module._optimal_orders

    def recording(sums, charges, starts):
        sizes.append(charges.shape[1])
        return original(sums, charges, starts)

    policy = SplitPointPolicy.full(base.schema).with_query_boundaries(query)
    candidates = [policy.candidates(index, ranges) for index in range(len(ranges))]
    with mock.patch.object(optimal_module, "_optimal_orders", recording):
        base.split_scorer(query, ranges).score_all([candidates])
    return sizes


def _correlated(rows: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.integers(1, 5, rows)
    a = np.clip(x + rng.integers(-1, 2, rows), 1, 4)
    b = np.clip(5 - x + rng.integers(-1, 2, rows), 1, 4)
    c = rng.integers(1, 4, rows)
    return np.stack([x, a, b, c], axis=1).astype(np.int64)


SCHEMA = Schema(
    [
        Attribute("x", 4, 2.0),
        Attribute("a", 4, 20.0),
        Attribute("b", 4, 20.0),
        Attribute("c", 3, 5.0),
    ]
)


class TestBoardCosts:
    def test_split_attribute_changes_the_other_charges(self):
        """x shares the board of a and b, so a side split on x charges
        their reads without the power-up."""
        model = BoardAwareCostModel(
            SCHEMA, {0: "s", 1: "s", 2: "s"}, power_up_cost=30.0, per_read_cost=2.0
        )
        assert model.cost(1, frozenset({0})) < model.cost(1, frozenset())
        query = ConjunctiveQuery(
            SCHEMA, [RangePredicate("a", 2, 3), RangePredicate("b", 1, 2)]
        )
        data = _correlated(600, seed=1)
        for smoothing in (0.0, 0.5):
            distribution = EmpiricalDistribution(SCHEMA, data, smoothing=smoothing)
            base = OptimalSequentialPlanner(distribution, cost_model=model)
            full = RangeVector.full(SCHEMA)
            for ranges in (full, full.with_range(3, Range(2, 3))):
                _matches_reference(query, ranges, distribution, base, model)


class TestStackedLattice:
    QUERY = ConjunctiveQuery(
        SCHEMA,
        [
            RangePredicate("a", 1, 2),
            RangePredicate("b", 3, 4),
            RangePredicate("c", 1, 2),
        ],
    )

    def test_decided_true_sides_of_two_attributes_share_one_dp(self):
        """a < 3 decides a's predicate true and b >= 3 decides b's: their
        sides drop different predicates yet run in the one 3-predicate DP
        with the undecided sides."""
        distribution = EmpiricalDistribution(SCHEMA, _correlated(800, seed=2))
        base = OptimalSequentialPlanner(distribution)
        full = RangeVector.full(SCHEMA)
        assert _lattice_sizes(base, self.QUERY, full) == [3]
        choice = _matches_reference(self.QUERY, full, distribution, base)
        assert choice is not None
        policy = SplitPointPolicy.full(SCHEMA).with_query_boundaries(self.QUERY)
        scores = base.split_scorer(self.QUERY, full).score_all(
            [[policy.candidates(index, full) for index in range(len(SCHEMA))]]
        )[0]
        # Below a = 3 the plan skips a; at or above b = 3 it skips b.
        below_a = scores[1].plan(policy.candidates(1, full).index(3), above=False)
        above_b = scores[2].plan(policy.candidates(2, full).index(3), above=True)
        assert {step.attribute_index for step in below_a.steps} == {2, 3}
        assert {step.attribute_index for step in above_b.steps} == {1, 3}

    def test_whole_planner_matches_reference(self, monkeypatch):
        import repro.planning.greedy_conditional as conditional_module

        distribution = EmpiricalDistribution(
            SCHEMA, _correlated(800, seed=3), smoothing=0.5
        )
        planner = GreedyConditionalPlanner(
            distribution, CorrSeqPlanner(distribution), max_splits=5
        )
        actual = planner.plan(self.QUERY)
        calls: list = []
        monkeypatch.setattr(conditional_module, "greedy_splits", _reference_pass(calls))
        expected = planner.plan(self.QUERY)
        _ran_for_root_and_every_expansion(calls, expected)
        assert actual.plan == expected.plan
        assert actual.expected_cost.hex() == expected.expected_cost.hex()
        assert actual.stats == expected.stats


class TestZeroRowSides:
    @pytest.mark.parametrize("smoothing", [0.0, 0.5])
    def test_empty_values_and_empty_subproblem(self, smoothing):
        """x = 3 never occurs, so sides like [3, 3] hold no row; the
        subproblem x in [3, 3] holds none at all."""
        data = _correlated(300, seed=4)
        data = data[data[:, 0] != 3]
        distribution = EmpiricalDistribution(SCHEMA, data, smoothing=smoothing)
        query = ConjunctiveQuery(
            SCHEMA, [RangePredicate("a", 2, 4), RangePredicate("c", 2, 2)]
        )
        full = RangeVector.full(SCHEMA)
        empty = full.with_range(0, Range(3, 3))
        assert distribution.row_count(empty) == 0
        for base in (OptimalSequentialPlanner(distribution), CorrSeqPlanner(distribution)):
            for ranges in (full, full.with_range(0, Range(2, 4)), empty):
                _matches_reference(query, ranges, distribution, base)


class TestRowOrder:
    def test_shuffled_rows_give_identical_plans(self):
        data = _correlated(1000, seed=5)
        shuffled = data[np.random.default_rng(6).permutation(len(data))]
        query = ConjunctiveQuery(
            SCHEMA,
            [RangePredicate("a", 2, 3), RangePredicate("b", 1, 3), RangePredicate("c", 1, 1)],
        )
        results = []
        for rows in (data, shuffled):
            distribution = EmpiricalDistribution(SCHEMA, rows, smoothing=0.5)
            planner = GreedyConditionalPlanner(
                distribution, CorrSeqPlanner(distribution), max_splits=5
            )
            results.append(planner.plan(query))
        first, second = results
        assert first.plan == second.plan
        assert first.expected_cost.hex() == second.expected_cost.hex()
        assert first.stats == second.stats
        assert first.certificate.bounds.keys() == second.certificate.bounds.keys()
        for path, bound in first.certificate.bounds.items():
            assert bound.hex() == second.certificate.bounds[path].hex()


class TestCountTable:
    def test_wide_schema_keeps_each_distinct_row_once(self):
        """30 attributes of 8 values need 90-bit row codes, so the table
        renumbers its codes part way; it must still hold every distinct
        row once, with its multiplicity, and count like the rows do.  The
        rows differ only in the first attributes, whose digits a 64-bit
        code without renumbering would lose."""
        schema = Schema([Attribute(f"a{index}", 8, 1.0) for index in range(30)])
        rng = np.random.default_rng(7)
        rows = rng.integers(1, 9, (40, 30))
        rows[:, 8:] = rows[0, 8:]
        data = rows[rng.integers(0, 40, 500)]
        distribution = EmpiricalDistribution(schema, data)
        distinct, counts = np.unique(data, axis=0, return_counts=True)
        cells, weights = distribution._cells, distribution._weights
        order = np.lexsort(cells.T[::-1])
        assert (cells[order] == distinct).all()
        assert (weights[order] == counts).all()
        ranges = RangeVector.full(schema).with_range(3, Range(2, 5))
        inside = (data[:, 3] >= 2) & (data[:, 3] <= 5)
        assert distribution.row_count(ranges) == int(inside.sum())
        binding = (RangePredicate("a5", 1, 4), 5)
        joint = distribution.predicate_joint([binding], ranges)
        below = (data[inside, 5] <= 4).sum() / inside.sum()
        assert joint[1].hex() == float(below).hex()


class TestEquationSeven:
    """``split_probability`` and ``split_probabilities`` are one formula."""

    SCHEMA = Schema([Attribute("wide", 12, 1.0), Attribute("other", 3, 1.0)])
    RANGES = (
        RangeVector.full(SCHEMA),
        RangeVector.full(SCHEMA).with_range(1, Range(2, 3)),
    )

    @staticmethod
    def _data() -> np.ndarray:
        rng = np.random.default_rng(18)
        wide = rng.choice(12, 997, p=rng.dirichlet(np.ones(12))) + 1
        other = rng.integers(1, 4, 997)
        return np.stack([wide, other], axis=1).astype(np.int64)

    @pytest.mark.parametrize(
        "make",
        [
            lambda schema, data: EmpiricalDistribution(schema, data),
            lambda schema, data: EmpiricalDistribution(schema, data, smoothing=0.5),
            lambda schema, data: ChowLiuDistribution(schema, data),
            lambda schema, data: IndependenceDistribution(schema, data),
        ],
        ids=["empirical", "smoothed", "chow-liu", "independence"],
    )
    def test_every_split_point_hex_equal(self, make):
        data = self._data()
        distribution = make(self.SCHEMA, data)
        for ranges in self.RANGES:
            values = list(range(2, 13))
            batched = split_probabilities(distribution, 0, values, ranges)
            for value, probability in zip(values, batched):
                scalar = distribution.split_probability(0, value, ranges)
                assert scalar.hex() == probability.hex(), value

    def test_slice_sums_differ_from_the_cumulative_form(self):
        """The old scalar summed the slice below the split; past 8 values
        numpy's pairwise summation rounds differently from the running
        sum, so the two forms really can disagree here."""
        data = self._data()
        distribution = EmpiricalDistribution(self.SCHEMA, data)
        differing = 0
        for ranges in self.RANGES:
            histogram = distribution.attribute_histogram(0, ranges)
            cumulative = np.cumsum(histogram)
            differing += sum(
                float(histogram[:k].sum()) != float(cumulative[k - 1])
                for k in range(9, 13)
            )
        assert differing > 0


    @pytest.mark.parametrize("smoothing", [0.0, 0.5, 0.3])
    @pytest.mark.parametrize("domain", [12, 300])
    def test_counted_scorer_matches_split_probabilities(self, smoothing, domain):
        schema = Schema([Attribute("wide", domain, 1.0), Attribute("other", 3, 9.0)])
        rng = np.random.default_rng(domain)
        wide = rng.choice(domain, 4000, p=rng.dirichlet(np.ones(domain))) + 1
        data = np.stack([wide, rng.integers(1, 4, 4000)], axis=1).astype(np.int64)
        distribution = EmpiricalDistribution(schema, data, smoothing=smoothing)
        query = ConjunctiveQuery(schema, [RangePredicate("other", 2, 3)])
        base = OptimalSequentialPlanner(distribution)
        full = RangeVector.full(schema)
        for ranges, at in ((full, None), (full, (0, domain // 3)), (full, (1, 2))):
            scorer = base.split_scorer(query, ranges, at)
            candidates = [
                [list(range(sub[0].low + 1, sub[0].high + 1)), []]
                for sub in scorer.subproblems
            ]
            for subproblem, wanted, scores in zip(
                scorer.subproblems, candidates, scorer.score_all(candidates)
            ):
                expected = split_probabilities(distribution, 0, wanted[0], subproblem)
                for position, probability in enumerate(expected):
                    assert scores[0].probability_below(position).hex() == (
                        probability.hex()
                    )


def test_row_sums_add_in_numpy_sum_order():
    """The batched row sums equal ``ndarray.sum`` on every row, through the
    left-to-right, eight-accumulator and halving orders."""
    rng = np.random.default_rng(21)
    lengths = np.array(
        [1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 127, 128, 129, 130, 255, 256, 300, 513]
    )
    values = np.zeros((len(lengths), int(lengths.max()) + 5))
    for row, length in enumerate(lengths):
        drawn = rng.random(length) * 10.0 ** rng.integers(-3, 4, length)
        values[row, :length] = drawn / drawn.sum() if row % 2 else drawn
    totals = _row_sums(values, lengths)
    for row, length in enumerate(lengths):
        assert totals[row].hex() == float(values[row, :length].sum()).hex(), length
