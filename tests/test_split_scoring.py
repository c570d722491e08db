"""GreedySplit's batched side scoring against the per-side reference.

``_reference_greedy_split`` is Figure 6 as it was written before side
scoring moved behind :meth:`SequentialPlanner.split_scorer`: every
candidate side gets its own RangeVector and its own ``plan_sequence``
call, and OptSeq's sides run ``_reference_opt_seq``, the scalar subset DP
that the vectorised one replaced.  The production GreedySplit must agree
with it exactly — the same plans, bit-equal costs and split
probabilities, and the same search counters — for every base planner,
distribution and cost model, because OptSeq on an empirical distribution
now scores all sides of an attribute from one counting pass.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.planning.bounded as bounded_module
import repro.planning.greedy_conditional as conditional_module
from repro.core import (
    Attribute,
    ConjunctiveQuery,
    RangePredicate,
    RangeVector,
    Schema,
)
from repro.core.cost import expected_cost
from repro.core.cost_models import BoardAwareCostModel
from repro.core.plan import PlanNode
from repro.core.predicates import NotRangePredicate
from repro.core.ranges import Range
from repro.data import generate_garden_dataset, generate_lab_dataset
from repro.planning import (
    CorrSeqPlanner,
    GreedyConditionalPlanner,
    GreedySequentialPlanner,
    OptimalSequentialPlanner,
    SizeAwareConditionalPlanner,
    SplitChoice,
    SplitPointPolicy,
    greedy_split,
    greedy_splits,
)
from repro.exceptions import PlanningError
from repro.planning.base import (
    PlannerStats,
    SequentialPlanner,
    SplitScorer,
    effective_cost,
    resolved_leaf,
    sequential_node_from_order,
    split_probabilities,
)
from repro.planning.greedy_split import SplitPass
from repro.probability import (
    ChowLiuDistribution,
    EmpiricalDistribution,
    IndependenceDistribution,
)
from repro.probability.base import Distribution
from repro.probability.joint import conditional_from_superset_sums, superset_sums
from tests.conftest import correlated_dataset


def _reference_opt_seq(
    self: OptimalSequentialPlanner, query: ConjunctiveQuery, ranges: RangeVector
) -> tuple[float, PlanNode]:
    """OptSeq with the scalar subset DP, one state and predicate at a time."""
    leaf = resolved_leaf(query, ranges)
    if leaf is not None:
        return 0.0, leaf

    bindings = query.undetermined_predicates(ranges)
    count = len(bindings)
    if count > 18:
        raise PlanningError(f"OptSeq over {count} predicates")
    schema = self.schema
    distribution = self.distribution
    cost_model = self.cost_model
    static_costs = [effective_cost(schema, ranges, binding[1]) for binding in bindings]
    base_acquired = ranges.acquired_indices()
    attribute_of = [binding[1] for binding in bindings]
    joint = distribution.predicate_joint(bindings, ranges)
    sums = superset_sums(joint)

    def state_cost(j: int, state: int) -> float:
        if cost_model is None or ranges.is_acquired(attribute_of[j]):
            return static_costs[j]
        acquired = set(base_acquired)
        for k in range(count):
            if state & (1 << k):
                acquired.add(attribute_of[k])
        return cost_model.cost(attribute_of[j], acquired)

    full_mask = (1 << count) - 1
    best_cost = [0.0] * (1 << count)
    best_choice = [-1] * (1 << count)
    for state in range(full_mask - 1, -1, -1):
        minimum = math.inf
        choice = -1
        for j in range(count):
            bit = 1 << j
            if state & bit:
                continue
            passed = conditional_from_superset_sums(sums, state, bit)
            value = state_cost(j, state) + passed * best_cost[state | bit]
            if value < minimum:
                minimum = value
                choice = j
        best_cost[state] = minimum
        best_choice[state] = choice

    order = []
    state = 0
    while state != full_mask:
        j = best_choice[state]
        order.append(bindings[j])
        state |= 1 << j

    node = sequential_node_from_order(order)
    return expected_cost(node, distribution, ranges, self.cost_model), node


@contextmanager
def _reference_sequential():
    """Every OptSeq (CorrSeq's included) plans with the scalar DP."""
    with mock.patch.object(
        OptimalSequentialPlanner, "plan_sequence", _reference_opt_seq
    ):
        yield


def _reference_greedy_split(
    query: ConjunctiveQuery,
    ranges: RangeVector,
    distribution: Distribution,
    base_planner: SequentialPlanner,
    policy: SplitPointPolicy,
    stats: PlannerStats | None = None,
    cost_model=None,
) -> SplitChoice | None:
    """Figure 6 with one ``plan_sequence`` call per candidate side."""
    with _reference_sequential():
        return _per_side_greedy_split(
            query, ranges, distribution, base_planner, policy, stats, cost_model
        )


def _reference_pass(
    calls: list[tuple[RangeVector, tuple[int, int] | None]],
):
    """A stand-in for :func:`greedy_splits` that runs the reference.

    Each subproblem of the pass gets :func:`_reference_greedy_split`, and
    its own unsplit plan comes from the base planner's ``plan_sequence``
    (the default :class:`SplitScorer`).  Every call lands in ``calls``.
    """

    def reference(
        query, ranges, distribution, base_planner, policy, stats=None,
        cost_model=None, at=None,
    ) -> SplitPass:
        calls.append((ranges, at))
        scorer = SplitScorer(base_planner, query, ranges, at)
        return SplitPass(
            subproblems=scorer.subproblems,
            splits=tuple(
                _reference_greedy_split(
                    query, subproblem, distribution, base_planner, policy, stats,
                    cost_model,
                )
                for subproblem in scorer.subproblems
            ),
            scorer=scorer,
        )

    return reference


def _ran_for_root_and_every_expansion(calls, result) -> None:
    """One reference pass for the root, then one per expansion."""
    assert [at for _ranges, at in calls[:1]] == [None]
    assert all(at is not None for _ranges, at in calls[1:])
    assert len(calls) == 1 + result.stats.subproblems


def _per_side_greedy_split(
    query: ConjunctiveQuery,
    ranges: RangeVector,
    distribution: Distribution,
    base_planner: SequentialPlanner,
    policy: SplitPointPolicy,
    stats: PlannerStats | None,
    cost_model,
) -> SplitChoice | None:
    schema = distribution.schema
    best: SplitChoice | None = None
    side_cache: dict[RangeVector, tuple[float, PlanNode]] = {}

    def side_plan(side: RangeVector) -> tuple[float, PlanNode]:
        cached = side_cache.get(side)
        if cached is None:
            cached = base_planner.plan_sequence(query, side)
            side_cache[side] = cached
            if stats is not None:
                stats.sequential_plans_built += 1
        return cached

    for index in range(len(schema)):
        acquisition = effective_cost(schema, ranges, index, cost_model)
        if best is not None and acquisition >= best.cost:
            continue
        candidates = policy.candidates(index, ranges)
        below_probabilities = split_probabilities(
            distribution, index, candidates, ranges
        )
        for split_value, probability_below in zip(candidates, below_probabilities):
            if stats is not None:
                stats.splits_considered += 1
            below_ranges, above_ranges = ranges.split(index, split_value)
            below_cost, below_plan = side_plan(below_ranges)
            total = acquisition + probability_below * below_cost
            if best is not None and total >= best.cost:
                continue
            above_cost, above_plan = side_plan(above_ranges)
            total += (1.0 - probability_below) * above_cost
            if best is None or total < best.cost:
                best = SplitChoice(
                    cost=total,
                    attribute_index=index,
                    split_value=split_value,
                    probability_below=probability_below,
                    below_cost=below_cost,
                    below_plan=below_plan,
                    above_cost=above_cost,
                    above_plan=above_plan,
                )
    return best


def _same_choice(actual: SplitChoice | None, expected: SplitChoice | None) -> None:
    if expected is None:
        assert actual is None
        return
    assert actual is not None
    # Dataclass equality compares floats with ==; hex() also tells
    # 0.0 from -0.0, so the comparison is bit for bit.
    assert actual == expected
    for name in ("cost", "probability_below", "below_cost", "above_cost"):
        assert float(getattr(actual, name)).hex() == float(
            getattr(expected, name)
        ).hex(), name


def _same_sides(
    base: SequentialPlanner,
    query: ConjunctiveQuery,
    ranges: RangeVector,
    policy: SplitPointPolicy,
) -> None:
    """Every side the scorer prices equals that side planned on its own."""
    scorer = base.split_scorer(query, ranges)
    for index in range(len(ranges)):
        candidates = policy.candidates(index, ranges)
        if not candidates:
            continue
        wanted: list[list[int]] = [[] for _ in range(len(ranges))]
        wanted[index] = candidates
        scores = scorer.score_all([wanted])[0][index]
        for position, value in enumerate(candidates):
            for above, side in enumerate(ranges.split(index, value)):
                with _reference_sequential():
                    cost, plan = base.plan_sequence(query, side)
                assert scores.cost(position, bool(above)).hex() == cost.hex()
                assert scores.plan(position, bool(above)) == plan


# ----------------------------------------------------------------------
# Datasets, distributions, cost models and planners under comparison
# ----------------------------------------------------------------------


def _lab_case():
    lab = generate_lab_dataset(
        n_readings=3000,
        n_motes=4,
        seed=0,
        domain_sizes={"hour": 6, "voltage": 4, "light": 5, "temp": 5, "humidity": 5},
    )
    schema = lab.schema
    queries = [
        ConjunctiveQuery(
            schema,
            [
                RangePredicate("light", 2, 4),
                RangePredicate("temp", 1, 3),
                RangePredicate("humidity", 3, 5),
            ],
        ),
        ConjunctiveQuery(
            schema, [RangePredicate("light", 1, 2), RangePredicate("temp", 3, 5)]
        ),
    ]
    names = schema.names
    boards = {names.index(name): "sensor" for name in ("light", "temp", "humidity")}
    return schema, lab.data, queries, boards


def _garden_case():
    garden = generate_garden_dataset(
        n_motes=2,
        n_epochs=1000,
        seed=3,
        domain_sizes={"temp": 5, "humidity": 5, "voltage": 4},
    )
    schema = garden.schema
    temps = garden.attribute_names("temp")
    humidities = garden.attribute_names("humidity")
    queries = [
        ConjunctiveQuery(
            schema,
            [RangePredicate(name, 2, 4) for name in temps]
            + [NotRangePredicate(humidities[0], 1, 2)],
        ),
        ConjunctiveQuery(
            schema,
            [RangePredicate(temps[0], 1, 3), RangePredicate(humidities[1], 3, 5)],
        ),
    ]
    boards = {schema.names.index(name): "board" for name in temps + humidities}
    return schema, garden.data, queries, boards


def _correlated_case():
    schema, data = correlated_dataset(n_rows=2000)
    queries = [
        ConjunctiveQuery(
            schema, [RangePredicate("a", 1, 2), RangePredicate("b", 3, 5)]
        ),
        ConjunctiveQuery(
            schema,
            [
                NotRangePredicate("a", 2, 3),
                RangePredicate("b", 1, 4),
                RangePredicate("c", 2, 5),
            ],
        ),
    ]
    return schema, data, queries, {1: "board", 2: "board"}


CASES = {"lab": _lab_case, "garden": _garden_case, "correlated": _correlated_case}


DISTRIBUTIONS = {
    "empirical": lambda schema, data: EmpiricalDistribution(schema, data),
    "empirical-smoothed": lambda schema, data: EmpiricalDistribution(
        schema, data, smoothing=0.5
    ),
    "chow-liu": lambda schema, data: ChowLiuDistribution(schema, data),
    "independence": lambda schema, data: IndependenceDistribution(schema, data),
}

BASES = {
    "opt-seq": OptimalSequentialPlanner,
    "corr-seq": CorrSeqPlanner,
    "greedy-seq": GreedySequentialPlanner,
}

PLANNERS = {
    "heuristic-0": lambda d, base, model: GreedyConditionalPlanner(
        d, base, max_splits=0, cost_model=model
    ),
    "heuristic-1": lambda d, base, model: GreedyConditionalPlanner(
        d, base, max_splits=1, cost_model=model
    ),
    "heuristic-5": lambda d, base, model: GreedyConditionalPlanner(
        d, base, max_splits=5, cost_model=model
    ),
    "size-aware": lambda d, base, model: SizeAwareConditionalPlanner(
        d, base, alpha=0.05, max_splits=6, cost_model=model
    ),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    return request.param, CASES[request.param]()


def _reference_plan(planner, query, monkeypatch):
    calls: list = []
    with monkeypatch.context() as patch, _reference_sequential():
        patch.setattr(conditional_module, "greedy_splits", _reference_pass(calls))
        patch.setattr(bounded_module, "greedy_splits", _reference_pass(calls))
        result = planner.plan(query)
    _ran_for_root_and_every_expansion(calls, result)
    return result


class TestPlannersMatchPerSideReference:
    @pytest.mark.parametrize("distribution_name", sorted(DISTRIBUTIONS))
    @pytest.mark.parametrize("base_name", sorted(BASES))
    @pytest.mark.parametrize("board_costs", [False, True], ids=["flat", "boards"])
    def test_every_planner_matches(
        self, case, distribution_name, base_name, board_costs, monkeypatch
    ):
        _name, (schema, data, queries, boards) = case
        distribution = DISTRIBUTIONS[distribution_name](schema, data)
        model = (
            BoardAwareCostModel(schema, boards, power_up_cost=40.0, per_read_cost=5.0)
            if board_costs
            else None
        )
        base = BASES[base_name](distribution, cost_model=model)
        for query in queries:
            for make in PLANNERS.values():
                planner = make(distribution, base, model)
                expected = _reference_plan(planner, query, monkeypatch)
                actual = planner.plan(query)
                assert actual.plan == expected.plan
                assert actual.expected_cost.hex() == expected.expected_cost.hex()
                # Includes splits_considered and the sides costed.
                assert actual.stats == expected.stats


class TestGreedySplitMatchesPerSideReference:
    @pytest.mark.parametrize("smoothing", [0.0, 0.5])
    @pytest.mark.parametrize("base_name", ["corr-seq", "opt-seq"])
    def test_every_reachable_subproblem(self, case, smoothing, base_name):
        """The root, every one-split side, and their one-split sides."""
        _name, (schema, data, queries, _boards) = case
        distribution = EmpiricalDistribution(schema, data, smoothing=smoothing)
        base = BASES[base_name](distribution)
        for query in queries:
            policy = SplitPointPolicy.full(schema).with_query_boundaries(query)
            full = RangeVector.full(schema)
            subproblems = [full]
            for index in range(len(schema)):
                for value in policy.candidates(index, full)[:2]:
                    subproblems.extend(full.split(index, value))
            for ranges in list(subproblems[1:]):
                index = (ranges.acquired_indices() and min(ranges.acquired_indices()))
                for other in range(len(schema)):
                    if other != index and policy.candidates(other, ranges):
                        subproblems.extend(
                            ranges.split(other, policy.candidates(other, ranges)[-1])
                        )
                        break
            for ranges in subproblems:
                stats, reference_stats = PlannerStats(), PlannerStats()
                actual = greedy_split(query, ranges, distribution, base, policy, stats)
                expected = _reference_greedy_split(
                    query, ranges, distribution, base, policy, reference_stats
                )
                _same_choice(actual, expected)
                assert stats == reference_stats
                _same_sides(base, query, ranges, policy)

    def test_zero_row_side_orders_by_the_prior(self):
        """On a side with no rows every DP conditional is OptSeq's 0.5
        prior.  Under board-shared costs the prior decides the order: at
        0.5 the two board reads go first, at lower priors the cheap read
        does, so a scorer with any other prior prices this side apart."""
        schema = Schema(
            [
                Attribute("x", 3, 1.0),
                Attribute("a", 2, 1.0),
                Attribute("b", 2, 1.0),
                Attribute("c", 2, 7.5),
            ]
        )
        data = np.array(
            [[1, 1, 2, 1], [1, 2, 2, 2], [2, 2, 1, 2], [2, 1, 1, 1]], dtype=np.int64
        )
        model = BoardAwareCostModel(
            schema, {1: "board", 2: "board"}, power_up_cost=9.0, per_read_cost=1.0
        )
        query = ConjunctiveQuery(
            schema,
            [
                RangePredicate("a", 2, 2),
                RangePredicate("b", 2, 2),
                RangePredicate("c", 2, 2),
            ],
        )
        distribution = EmpiricalDistribution(schema, data, smoothing=0.5)
        base = OptimalSequentialPlanner(distribution, cost_model=model)
        policy = SplitPointPolicy.full(schema)
        full = RangeVector.full(schema)
        _same_sides(base, query, full, policy)
        # x >= 3 holds no training row.
        _cost, plan = _reference_opt_seq(base, query, full.split(0, 3)[1])
        assert [step.attribute_index for step in plan.steps][0] != 3

    def test_zero_row_subproblem_uses_the_fallbacks(self):
        """A side with no training rows: OptSeq's 0.5 prior and Eq. 3's
        marginal fallback both decide the costs, identically."""
        schema = Schema(
            [Attribute("x", 4, 1.0), Attribute("y", 3, 10.0), Attribute("z", 3, 10.0)]
        )
        data = np.array([[1, 1, 1], [1, 2, 3], [2, 3, 2], [2, 1, 3]], dtype=np.int64)
        query = ConjunctiveQuery(
            schema, [RangePredicate("y", 2, 3), RangePredicate("z", 2, 2)]
        )
        policy = SplitPointPolicy.full(schema).with_query_boundaries(query)
        # x in [3, 4] holds no training row at all.
        ranges = RangeVector.full(schema).with_range(0, Range(3, 4))
        for smoothing in (0.0, 0.5):
            distribution = EmpiricalDistribution(schema, data, smoothing=smoothing)
            assert distribution.row_count(ranges) == 0
            for base in (
                OptimalSequentialPlanner(distribution),
                CorrSeqPlanner(distribution),
            ):
                for subproblem in (RangeVector.full(schema), ranges):
                    actual = greedy_split(query, subproblem, distribution, base, policy)
                    expected = _reference_greedy_split(
                        query, subproblem, distribution, base, policy
                    )
                    _same_choice(actual, expected)


# ----------------------------------------------------------------------
# Property test: tiny random problems, including empty subproblems
# ----------------------------------------------------------------------


@st.composite
def _problems(draw):
    attributes = draw(st.integers(min_value=2, max_value=4))
    domains = [draw(st.integers(min_value=2, max_value=5)) for _ in range(attributes)]
    costs = [
        draw(st.sampled_from([0.0, 1.0, 3.0, 10.0, 25.0])) for _ in range(attributes)
    ]
    schema = Schema(
        [
            Attribute(f"x{index}", domain, cost)
            for index, (domain, cost) in enumerate(zip(domains, costs))
        ]
    )
    rows = draw(st.integers(min_value=1, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    data = np.stack(
        [rng.integers(1, domain + 1, rows) for domain in domains], axis=1
    ).astype(np.int64)
    if rows > 1:
        # Correlate two columns so conditioning can pay off.
        data[:, 1] = np.minimum(data[:, 0], domains[1])
    count = draw(st.integers(min_value=1, max_value=attributes))
    chosen = draw(st.permutations(range(attributes)))[:count]
    predicates = []
    for index in chosen:
        low = draw(st.integers(min_value=1, max_value=domains[index]))
        high = draw(st.integers(min_value=low, max_value=domains[index]))
        negated = draw(st.booleans())
        kind = NotRangePredicate if negated else RangePredicate
        predicates.append(kind(f"x{index}", low, high))
    query = ConjunctiveQuery(schema, predicates)
    intervals = []
    for domain in domains:
        low = draw(st.integers(min_value=1, max_value=domain))
        high = draw(st.integers(min_value=low, max_value=domain))
        intervals.append(Range(low, high))
    ranges = RangeVector(intervals, domains)
    smoothing = draw(st.sampled_from([0.0, 0.5]))
    boards = draw(st.booleans())
    return schema, data, query, ranges, smoothing, boards


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(problem=_problems())
def test_random_problems_match_reference(problem):
    schema, data, query, ranges, smoothing, boards = problem
    distribution = EmpiricalDistribution(schema, data, smoothing=smoothing)
    model = (
        BoardAwareCostModel(schema, {0: "b", 1: "b"}, power_up_cost=4.0)
        if boards
        else None
    )
    policy = SplitPointPolicy.full(schema).with_query_boundaries(query)
    for base in (
        OptimalSequentialPlanner(distribution, cost_model=model),
        CorrSeqPlanner(distribution, optimal_threshold=2, cost_model=model),
    ):
        for subproblem in (RangeVector.full(schema), ranges):
            stats, reference_stats = PlannerStats(), PlannerStats()
            actual = greedy_split(
                query, subproblem, distribution, base, policy, stats, model
            )
            expected = _reference_greedy_split(
                query, subproblem, distribution, base, policy, reference_stats, model
            )
            _same_choice(actual, expected)
            assert stats == reference_stats
            _same_sides(base, query, subproblem, policy)


# ----------------------------------------------------------------------
# Memory: candidate sides never enter the row cache
# ----------------------------------------------------------------------


def test_row_cache_holds_only_split_subproblems(monkeypatch):
    """Heuristic-5 on the lab benchmark's 24 serve-time shapes caches row
    sets for the subproblems GreedySplit was called on and nothing else."""
    from repro.engine.language import parse_query

    lab = generate_lab_dataset(
        n_readings=40_000,
        n_motes=8,
        seed=0,
        domain_sizes={"hour": 8, "voltage": 4, "light": 6, "temp": 6, "humidity": 6},
    )
    schema = lab.schema
    train = lab.data[:20_000]
    names = list(schema.names)
    sensor_sets = (
        ("light", "temp", "humidity"),
        ("light", "temp"),
        ("temp", "humidity"),
        ("light", "humidity"),
    )
    rng = np.random.default_rng(11)
    texts: set[str] = set()
    while len(texts) < 24:
        sensors = sensor_sets[int(rng.integers(len(sensor_sets)))]
        width_stds = float(rng.choice([1.0, 1.5, 2.0]))
        clauses = []
        for name in sensors:
            column = names.index(name)
            domain = schema[column].domain_size
            width = int(round(width_stds * float(train[:, column].std())))
            width = min(max(1, width), domain - 1)
            left = int(rng.integers(1, domain - width + 1))
            clauses.append(f"{name} BETWEEN {left} AND {left + width}")
        texts.add("SELECT * WHERE " + " AND ".join(clauses))

    distribution = EmpiricalDistribution(schema, train)
    called: set[RangeVector] = set()
    passes = []

    def recording_splits(query, ranges, *args, **kwargs):
        scored = greedy_splits(query, ranges, *args, **kwargs)
        passes.append((ranges, kwargs.get("at", args[5] if len(args) > 5 else None)))
        called.add(ranges)
        called.update(scored.subproblems)
        return scored

    monkeypatch.setattr(conditional_module, "greedy_splits", recording_splits)
    planner = GreedyConditionalPlanner(
        distribution, CorrSeqPlanner(distribution), max_splits=5
    )
    expansions = 0
    for text in sorted(texts):
        before = len(passes)
        result = planner.plan(parse_query(text, schema).query)
        _ran_for_root_and_every_expansion(passes[before:], result)
        expansions += result.stats.subproblems
    assert len(passes) == len(texts) + expansions
    cached = set(distribution._row_cache)
    assert called
    assert cached <= called
