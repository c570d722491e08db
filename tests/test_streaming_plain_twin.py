"""The windowed fault-free Sec. 7 loop against its per-tuple twin.

Fault-free, the adaptive executor runs each window of the stream through
the vectorized walker and cuts it where a trigger fires.  Its per-tuple
twin (:func:`tests.fault_reference.reference_adaptive_plain`) runs every
tuple as its own batch and checks every trigger after every tuple; the
two must agree byte for byte — costs, verdicts and every replan,
``drift_score`` included — whether interval, cost-drift or profile-drift
triggers fire.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Attribute, ConjunctiveQuery, RangePredicate, Schema
from repro.execution import AdaptiveStreamExecutor
from repro.learn import adversarial_stream
from repro.planning import CorrSeqPlanner, GreedyConditionalPlanner

from tests.fault_reference import reference_adaptive_plain


def factory(distribution):
    return GreedyConditionalPlanner(
        distribution, CorrSeqPlanner(distribution), max_splits=3
    )


@pytest.fixture(scope="module")
def schema() -> Schema:
    return Schema(
        [
            Attribute("mode", 2, 1.0),
            Attribute("p", 2, 100.0),
            Attribute("q", 2, 100.0),
        ]
    )


@pytest.fixture(scope="module")
def query(schema) -> ConjunctiveQuery:
    return ConjunctiveQuery(
        schema, [RangePredicate("p", 2, 2), RangePredicate("q", 2, 2)]
    )


def regime_stream(n: int, flipped: bool, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    mode = rng.integers(1, 3, n)
    fail_p = (mode == 1) != flipped
    p = np.where(fail_p, 1, rng.integers(1, 3, n))
    q = np.where(~fail_p, 1, rng.integers(1, 3, n))
    return np.stack([mode, p, q], axis=1).astype(np.int64)


def shifted_stream() -> np.ndarray:
    """The injected-shift stream of ``test_streaming_replan.py``."""
    return np.vstack(
        [regime_stream(3000, flipped=False, seed=5), regime_stream(3000, flipped=True, seed=6)]
    )


def assert_twins(build, stream):
    received = []
    windowed = build(received.append).process(stream)
    reference = reference_adaptive_plain(build(None), stream)
    assert windowed.costs.tobytes() == reference.costs.tobytes()
    assert windowed.verdicts.tobytes() == reference.verdicts.tobytes()
    assert windowed.replans == reference.replans
    assert tuple(received) == windowed.replans
    assert windowed.abstained is None and windowed.faults is None
    return windowed


def test_interval_only(schema, query):
    def build(on_replan):
        return AdaptiveStreamExecutor(
            schema,
            query,
            factory,
            window=800,
            replan_interval=500,
            drift_threshold=None,
            on_replan=on_replan,
        )

    report = assert_twins(build, regime_stream(2600, flipped=False, seed=2))
    assert [e.reason for e in report.replans] == ["interval"] * 5


@pytest.mark.parametrize("seed", [0, 1])
def test_cost_drift(seed):
    stream = adversarial_stream(4, 150, seed=seed)

    def build(on_replan):
        return AdaptiveStreamExecutor(
            stream.schema,
            stream.query,
            factory,
            window=80,
            replan_interval=70,
            drift_threshold=1.2,
            on_replan=on_replan,
        )

    report = assert_twins(build, stream.data)
    assert "drift" in {e.reason for e in report.replans}


def test_cost_drift_on_the_shift(schema, query):
    def build(on_replan):
        return AdaptiveStreamExecutor(
            schema,
            query,
            factory,
            window=400,
            replan_interval=2000,
            drift_threshold=1.2,
            on_replan=on_replan,
        )

    report = assert_twins(build, shifted_stream())
    assert "drift" in {e.reason for e in report.replans}


def test_profile_drift(schema, query):
    def build(on_replan):
        return AdaptiveStreamExecutor(
            schema,
            query,
            factory,
            window=1500,
            replan_interval=100_000,
            drift_threshold=None,
            profile_drift_threshold=25.0,
            profile_check_every=64,
            profile_min_tuples=256,
            on_replan=on_replan,
        )

    report = assert_twins(build, shifted_stream())
    scores = [e.drift_score for e in report.replans if e.reason == "profile-drift"]
    assert scores and all(score > 25.0 for score in scores)


def test_all_triggers_mixed(schema, query):
    # Interval, cost drift and profile drift all live, with a check
    # cadence that does not divide the interval.
    def build(on_replan):
        return AdaptiveStreamExecutor(
            schema,
            query,
            factory,
            window=700,
            replan_interval=900,
            drift_threshold=1.3,
            profile_drift_threshold=10.0,
            profile_check_every=50,
            profile_min_tuples=120,
            on_replan=on_replan,
        )

    report = assert_twins(build, shifted_stream())
    assert {"interval", "profile-drift"} <= {e.reason for e in report.replans}
