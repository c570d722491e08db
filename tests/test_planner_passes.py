"""One scoring pass per GreedyPlan step: pass counts and numpy calls.

Heuristic-5 over an empirical distribution scores the root in one pass
(its unsplit OptSeq plan rides in the same DP) and both children of every
expansion in one more, so a plan runs ``1 + expansions`` passes, each one
``OutcomeCounter`` and one subset DP, and never a standalone
``plan_sequence``.  Counting wrappers pin those numbers.  A pass does a
fixed number of numpy calls: widening the schema from 6 to 30 attributes
(and so multiplying the candidate splits) adds none, because per-attribute
and per-side work is array work.  A pass whose layout (what it derives
without counting a row) is already in the bounded, read-only memo makes
fewer numpy calls than its cold twin, and a second stream of the same
query finds its root layout there.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from typing import Any, Callable

import numpy as np
import pytest

import repro.core.predicates
import repro.planning.greedy_conditional
import repro.planning.optimal_sequential
import repro.probability.empirical
import repro.probability.joint
from repro.core import Attribute, ConjunctiveQuery, RangePredicate, RangeVector, Schema
from repro.execution import AdaptiveStreamExecutor
from repro.learn.workloads import adversarial_stream
from repro.planning import (
    CorrSeqPlanner,
    GreedyConditionalPlanner,
    OptimalSequentialPlanner,
)
from repro.probability import EmpiricalDistribution
from repro.probability.empirical import OutcomeCounter

#: Modules whose numpy calls a scoring pass makes.
_NUMPY_USERS = (
    repro.planning.optimal_sequential,
    repro.probability.empirical,
    repro.probability.joint,
    repro.core.predicates,
)

_CORE = [
    Attribute("x", 6, 1.0),
    Attribute("a", 6, 40.0),
    Attribute("b", 6, 40.0),
    Attribute("c", 4, 25.0),
    Attribute("d", 4, 2.0),
    Attribute("e", 5, 2.0),
]


def _problem(noise: int, noise_domain: int = 6, rows: int = 3000):
    """The six core attributes plus ``noise`` expensive, independent ones.

    The core columns are the same rows whatever ``noise`` is, and no split
    on a noise attribute ever pays for its cost, so every schema yields
    the same plan through passes that score more attributes.
    """
    rng = np.random.default_rng(4)
    x = rng.integers(1, 7, rows)
    core = np.stack(
        [
            x,
            np.clip(x + rng.integers(-1, 2, rows), 1, 6),
            np.clip(7 - x + rng.integers(-1, 2, rows), 1, 6),
            rng.integers(1, 5, rows),
            np.clip((x + 1) // 2 + rng.integers(0, 2, rows), 1, 4),
            rng.integers(1, 6, rows),
        ],
        axis=1,
    )
    extra = rng.integers(1, noise_domain + 1, (rows, noise))
    schema = Schema(
        _CORE
        + [Attribute(f"n{index}", noise_domain, 500.0) for index in range(noise)]
    )
    query = ConjunctiveQuery(
        schema,
        [
            RangePredicate("a", 1, 3),
            RangePredicate("b", 2, 4),
            RangePredicate("c", 2, 3),
        ],
    )
    return schema, np.concatenate([core, extra], axis=1).astype(np.int64), query


def _planner(schema, data, smoothing: float) -> GreedyConditionalPlanner:
    distribution = EmpiricalDistribution(schema, data, smoothing=smoothing)
    return GreedyConditionalPlanner(
        distribution, CorrSeqPlanner(distribution), max_splits=5
    )


def _count_calls(monkeypatch, counts: Counter, owner: Any, name: str) -> None:
    function = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[name] += 1
        return function(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


class _CountingNumpy:
    """``numpy`` as a module sees it, counting every function call made
    through it (ufunc methods such as ``bitwise_or.accumulate`` too)."""

    def __init__(self, tally: list[int]) -> None:
        self._tally = tally

    def __getattr__(self, name: str) -> Any:
        value = getattr(np, name)
        if callable(value) and not isinstance(value, type):
            return _CountingCall(value, self._tally)
        return value


class _CountingCall:
    def __init__(self, function: Callable, tally: list[int]) -> None:
        self._function = function
        self._tally = tally

    def __call__(self, *args, **kwargs):
        self._tally[0] += 1
        return self._function(*args, **kwargs)

    def __getattr__(self, name: str) -> Any:
        value = getattr(self._function, name)
        return _CountingCall(value, self._tally) if callable(value) else value


def _numpy_calls_per_pass(
    monkeypatch, planner, query
) -> tuple[list[int], int, Any]:
    """The numpy calls of each scoring pass of one ``plan``, in order, and
    the number of candidate splits the passes scored."""
    tally = [0]
    for module in _NUMPY_USERS:
        monkeypatch.setattr(module, "np", _CountingNumpy(tally))
    candidates = [0]
    probabilities = OutcomeCounter.split_probabilities

    def counting(self, counts, lengths, segments, offsets):
        candidates[0] += len(offsets)
        return probabilities(self, counts, lengths, segments, offsets)

    monkeypatch.setattr(OutcomeCounter, "split_probabilities", counting)
    per_pass: list[int] = []
    scoring = repro.planning.greedy_conditional.greedy_splits

    def counted(*args, **kwargs):
        before = tally[0]
        scored = scoring(*args, **kwargs)
        per_pass.append(tally[0] - before)
        return scored

    monkeypatch.setattr(repro.planning.greedy_conditional, "greedy_splits", counted)
    result = planner.plan(query)
    return per_pass, candidates[0], result


@pytest.mark.parametrize("smoothing", [0.0, 0.5])
def test_one_pass_for_the_root_and_one_per_expansion(monkeypatch, smoothing):
    schema, data, query = _problem(noise=0)
    planner = _planner(schema, data, smoothing)
    counts: Counter = Counter()
    _count_calls(
        monkeypatch, counts, repro.planning.greedy_conditional, "greedy_splits"
    )
    _count_calls(
        monkeypatch, counts, repro.planning.optimal_sequential, "_optimal_orders"
    )
    _count_calls(monkeypatch, counts, OptimalSequentialPlanner, "plan_sequence")
    _count_calls(monkeypatch, counts, CorrSeqPlanner, "plan_sequence")
    _count_calls(monkeypatch, counts, OutcomeCounter, "__init__")
    result = planner.plan(query)
    expansions = result.stats.subproblems
    assert expansions >= 3
    assert counts["greedy_splits"] == 1 + expansions
    # One counter and one DP per pass; the root's plan comes from its DP.
    assert counts["__init__"] == 1 + expansions
    assert counts["_optimal_orders"] == 1 + expansions
    assert counts["plan_sequence"] == 0


@pytest.mark.parametrize("smoothing", [0.0, 0.5])
@pytest.mark.parametrize("noise_domain", [4, 12])
def test_numpy_calls_per_pass_do_not_grow_with_the_schema(
    monkeypatch, smoothing, noise_domain
):
    """6 and 30 attributes: the same plan from the same passes, each with
    the same number of numpy calls, though the wide passes score 24 more
    attributes and hundreds more candidate sides."""
    runs = []
    for noise in (0, 24):
        schema, data, query = _problem(noise, noise_domain)
        # Warm the lattice cache, so both runs count only their passes.
        _planner(schema, data, smoothing).plan(query)
        with monkeypatch.context() as patch:
            runs.append(
                _numpy_calls_per_pass(patch, _planner(schema, data, smoothing), query)
            )
    (narrow, narrow_candidates, narrow_result), (wide, wide_candidates, wide_result) = (
        runs
    )
    assert wide_result.plan == narrow_result.plan
    assert wide_result.stats == narrow_result.stats
    assert wide_candidates >= narrow_candidates + 100
    assert len(narrow) == 1 + narrow_result.stats.subproblems >= 4
    assert wide == narrow
    assert all(calls > 0 for calls in narrow)


def test_counting_numpy_sees_the_passes(monkeypatch):
    """The counting stand-in really intercepts the passes' numpy calls."""
    schema, data, query = _problem(noise=0)
    per_pass, _candidates, _result = _numpy_calls_per_pass(
        monkeypatch, _planner(schema, data, 0.0), query
    )
    assert min(per_pass) >= 20
    assert sys.modules["repro.probability.empirical"].np is not np


def _numpy_calls_per_cold_pass(monkeypatch, planner, query):
    """:func:`_numpy_calls_per_pass` with the layout memo emptied before
    every pass, so each pass builds its layout."""
    memo = repro.planning.optimal_sequential._pass_layout
    scoring = repro.planning.greedy_conditional.greedy_splits

    def cold(*args, **kwargs):
        memo.cache_clear()
        return scoring(*args, **kwargs)

    monkeypatch.setattr(repro.planning.greedy_conditional, "greedy_splits", cold)
    return _numpy_calls_per_pass(monkeypatch, planner, query)


@pytest.mark.parametrize(
    "smoothing, cold, warm", [(0.0, (85, 86), (46, 47)), (0.5, (101, 102), (51, 52))]
)
def test_a_warm_pass_makes_fewer_numpy_calls_than_its_cold_twin(
    monkeypatch, smoothing, cold, warm
):
    """Numpy calls of the root pass, then of every expansion's pass: a
    warm pass only counts, prices and replays."""
    schema, data, query = _problem(noise=0)
    with monkeypatch.context() as patch:
        cold_passes, _, cold_result = _numpy_calls_per_cold_pass(
            patch, _planner(schema, data, smoothing), query
        )
    _planner(schema, data, smoothing).plan(query)
    with monkeypatch.context() as patch:
        warm_passes, _, warm_result = _numpy_calls_per_pass(
            patch, _planner(schema, data, smoothing), query
        )
    assert warm_result.plan == cold_result.plan
    assert warm_result.expected_cost.hex() == cold_result.expected_cost.hex()
    expansions = cold_result.stats.subproblems
    assert cold_passes == [cold[0]] + [cold[1]] * expansions
    assert warm_passes == [warm[0]] + [warm[1]] * expansions


def test_the_layout_memo_never_holds_more_than_its_capacity():
    memo = repro.planning.optimal_sequential._pass_layout
    capacity = repro.planning.optimal_sequential._LAYOUTS
    memo.cache_clear()
    schema, data, _query = _problem(noise=0)
    planner = _planner(schema, data, 0.0)
    shapes = itertools.product((2, 3, 4, 5), (1, 2, 3, 4), (2, 3, 4))
    for a_high, b_low, c_high in shapes:
        query = ConjunctiveQuery(
            schema,
            [
                RangePredicate("a", 1, a_high),
                RangePredicate("b", b_low, 5),
                RangePredicate("c", 1, c_high),
            ],
        )
        planner.plan(query)
        assert memo.cache_info().currsize <= capacity
    info = memo.cache_info()
    assert info.misses > capacity
    assert info.currsize == info.maxsize == capacity


def _arrays(value: Any) -> list[np.ndarray]:
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [array for part in value for array in _arrays(part)]
    return []


@pytest.mark.parametrize("smoothing", [0.0, 0.5])
def test_cached_layout_arrays_are_read_only(smoothing):
    schema, data, query = _problem(noise=0)
    distribution = EmpiricalDistribution(schema, data, smoothing=smoothing)
    full = RangeVector.full(schema)
    scorer = OptimalSequentialPlanner(distribution).split_scorer(query, full, (1, 3))
    scorer.score_all(
        [
            [list(range(interval.low + 1, interval.high + 1)) for interval in ranges]
            for ranges in scorer.subproblems
        ]
    )
    layout = scorer._store.layout
    arrays = [
        array for name in layout.__slots__ for array in _arrays(getattr(layout, name))
    ]
    assert len(arrays) >= 13
    assert bool(layout.columns) == bool(smoothing)
    for array in arrays:
        assert not array.flags.writeable
        if array.size:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = array.flat[0]


def test_a_second_stream_of_the_same_query_builds_no_root_layout(monkeypatch):
    """The adaptive executor builds a new planner for every refit, and
    every refit scores the full ranges first: after one stream, the
    memo holds that root layout for the next."""
    built: list[tuple[RangeVector, Any]] = []
    layout_class = repro.planning.optimal_sequential._PassLayout

    def recording(schema, cost_model, query, ranges, at, *rest):
        built.append((ranges, at))
        return layout_class(schema, cost_model, query, ranges, at, *rest)

    monkeypatch.setattr(repro.planning.optimal_sequential, "_PassLayout", recording)
    memo = repro.planning.optimal_sequential._pass_layout
    memo.cache_clear()

    def stream(seed: int):
        workload = adversarial_stream(3, 90, seed=seed)
        executor = AdaptiveStreamExecutor(
            workload.schema,
            workload.query,
            lambda distribution: GreedyConditionalPlanner(
                distribution, CorrSeqPlanner(distribution), max_splits=5
            ),
            window=96,
            replan_interval=128,
            drift_threshold=1.3,
        )
        return workload.schema, executor.process(workload.data)

    schema, first = stream(1)
    full = RangeVector.full(schema)
    assert (full, None) in built
    built.clear()
    hits = memo.cache_info().hits
    _schema, second = stream(2)
    assert len(second.replans) >= 2
    assert memo.cache_info().hits > hits
    assert (full, None) not in built
