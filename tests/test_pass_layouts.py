"""A memoised scoring-pass layout changes no plan, cost or certificate.

OptSeq's counted scorer splits each scoring pass into a *layout* (what
the pass derives from the schema, the cost model, the query, its ranges
and its candidate splits, never from a row), memoised by
``optimal_sequential._pass_layout``, and a counted part that runs per
pass.  Each plan here is made five times:

- from an empty memo, so every layout is built cold;
- from the memo that earlier plans left (other histories, windows,
  smoothing and cost models), so a layout keyed too loosely would show;
- again, with every layout warm;
- twice through a one-entry memo: each pass evicts the layout of the
  pass before it, whose scores the planner may still read, and the
  second plan rebuilds every layout the first one evicted.

The plan, its expected cost, its counters and every certificate bound
must agree bit for bit, over the golden plan-digest corpus and over
random 96-row windows of the adversarial stream's schema, smoothed or
not, under flat and board-aware costs.  Planner threads sharing one
memo plan exactly as one thread does.
"""

from __future__ import annotations

import functools
import sys
import threading

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.planning.optimal_sequential as optimal_sequential
from repro.core import BoardAwareCostModel, ConjunctiveQuery, RangePredicate
from repro.learn.workloads import adversarial_stream
from repro.planning import CorrSeqPlanner, GreedyConditionalPlanner
from repro.planning.base import PlanningResult
from repro.probability import EmpiricalDistribution
from tests.test_pass_certificates import _digest_corpus


def _fingerprint(result: PlanningResult) -> tuple:
    assert result.certificate is not None
    return (
        result.plan,
        result.expected_cost.hex(),
        [(path, bound.hex()) for path, bound in result.certificate.bounds.items()],
        result.stats,
    )


def _plans(monkeypatch, make_planner, query) -> list[tuple]:
    """The plan made cold, then with the layouts earlier plans left, warm,
    and twice through a one-entry memo."""
    memo = optimal_sequential._pass_layout
    inherited = make_planner().plan(query)
    memo.cache_clear()
    cold = make_planner().plan(query)
    built = memo.cache_info()
    assert built.hits == 0 and built.misses > 0
    warm = make_planner().plan(query)
    # Every pass of the warm plan found its layout.
    assert memo.cache_info().misses == built.misses
    assert memo.cache_info().hits == built.misses
    with monkeypatch.context() as patch:
        evicting = functools.lru_cache(maxsize=1)(memo.__wrapped__)
        patch.setattr(optimal_sequential, "_pass_layout", evicting)
        evicted = make_planner().plan(query)
        again = make_planner().plan(query)
        assert evicting.cache_info().currsize == 1
    return [
        _fingerprint(result) for result in (cold, inherited, warm, evicted, again)
    ]


def _heuristic(distribution, cost_model=None):
    return lambda: GreedyConditionalPlanner(
        distribution,
        CorrSeqPlanner(distribution, cost_model=cost_model),
        max_splits=5,
        cost_model=cost_model,
    )


def test_warm_layouts_change_no_digest_plan(monkeypatch):
    plans = 0
    for distribution, query in _digest_corpus():
        cold, *others = _plans(monkeypatch, _heuristic(distribution), query)
        assert all(other == cold for other in others)
        plans += 1
    assert plans == 280


_SCHEMA = adversarial_stream(1, 1).schema


@st.composite
def _windows(draw) -> np.ndarray:
    """96 rows over the adversarial schema: a stream window, or random
    rows whose ``p`` and ``q`` columns follow ``mode`` as strongly as
    drawn."""
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        stream = adversarial_stream(3, 90, seed=seed)
        end = draw(st.integers(96, 270))
        return stream.data[end - 96 : end]
    rng = np.random.default_rng(seed)
    coupling = draw(st.sampled_from([0.0, 0.5, 0.9]))
    mode = rng.integers(1, 5, 96)
    columns = [mode]
    for _ in range(2):
        follows = rng.random(96) < coupling
        columns.append(np.where(follows, mode + 1, rng.integers(1, 6, 96)))
    return np.stack(columns, axis=1).astype(np.int64)


_QUERIES = st.tuples(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 5), st.integers(1, 5)
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    window=_windows(),
    smoothing=st.sampled_from([0.0, 0.5]),
    boards=st.booleans(),
    bounds=_QUERIES,
)
def test_warm_layouts_change_no_window_plan(
    monkeypatch, window, smoothing, boards, bounds
):
    mode_high, p_low, p_width, q_high = bounds
    query = ConjunctiveQuery(
        _SCHEMA,
        [
            RangePredicate("mode", 1, mode_high),
            RangePredicate("p", p_low, min(5, p_low + p_width - 1)),
            RangePredicate("q", 1, q_high),
        ],
    )
    board_model = BoardAwareCostModel(_SCHEMA, {1: "b", 2: "b"}, power_up_cost=60.0)
    model = board_model if boards else None
    # The same passes under the other smoothing and costs leave their
    # layouts in the memo first.
    for other_smoothing in (0.0, 0.5):
        for other_model in (None, board_model):
            if (other_smoothing, other_model) != (smoothing, model):
                other = EmpiricalDistribution(
                    _SCHEMA, window, smoothing=other_smoothing
                )
                _heuristic(other, other_model)().plan(query)
    distribution = EmpiricalDistribution(_SCHEMA, window, smoothing=smoothing)
    cold, *others = _plans(monkeypatch, _heuristic(distribution, model), query)
    assert all(other == cold for other in others)


def test_threads_sharing_the_memo_plan_as_one_thread_does(monkeypatch):
    """Planner threads share one memo (here two entries, so they evict
    each other's layouts); each thread's plans equal the serial ones."""
    stream = adversarial_stream(3, 90, seed=5)
    windows = [stream.data[end - 96 : end] for end in range(96, 271, 25)]

    def plan_all() -> list[tuple]:
        plans = []
        for window in windows:
            distribution = EmpiricalDistribution(_SCHEMA, window, smoothing=0.5)
            plans.append(_fingerprint(_heuristic(distribution)().plan(stream.query)))
        return plans

    expected = plan_all()
    memo = functools.lru_cache(maxsize=2)(optimal_sequential._pass_layout.__wrapped__)
    monkeypatch.setattr(optimal_sequential, "_pass_layout", memo)
    results: list[list[tuple]] = []
    errors: list[BaseException] = []

    def worker() -> None:
        try:
            for _ in range(3):
                results.append(plan_all())
        except BaseException as error:  # reported below, in the test's thread
            errors.append(error)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(results) == 12
    assert all(result == expected for result in results)
    assert memo.cache_info().currsize <= 2
