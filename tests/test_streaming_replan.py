"""Replan-event delivery and profile-drift replanning in the stream executor.

Covers the ``on_replan`` contract (event fields, ordering, exactly one
callback per replan) and the observability acceptance scenario: a
:class:`~repro.obs.DriftMonitor`-backed executor detecting an injected
distribution shift and triggering a ``"profile-drift"`` replan.
"""

import numpy as np
import pytest

from repro.core import Attribute, ConjunctiveQuery, RangePredicate, Schema
from repro.exceptions import PlanningError
from repro.execution import AdaptiveStreamExecutor, ReplanEvent
from repro.planning import CorrSeqPlanner, GreedyConditionalPlanner


@pytest.fixture
def schema() -> Schema:
    return Schema(
        [
            Attribute("mode", 2, 1.0),
            Attribute("p", 2, 100.0),
            Attribute("q", 2, 100.0),
        ]
    )


@pytest.fixture
def query(schema) -> ConjunctiveQuery:
    return ConjunctiveQuery(
        schema, [RangePredicate("p", 2, 2), RangePredicate("q", 2, 2)]
    )


def factory(distribution):
    return GreedyConditionalPlanner(
        distribution, CorrSeqPlanner(distribution), max_splits=3
    )


def regime_stream(n: int, flipped: bool, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    mode = rng.integers(1, 3, n)
    fail_p = (mode == 1) != flipped
    p = np.where(fail_p, 1, rng.integers(1, 3, n))
    q = np.where(~fail_p, 1, rng.integers(1, 3, n))
    return np.stack([mode, p, q], axis=1).astype(np.int64)


class TestReplanEventContract:
    def test_event_fields(self):
        event = ReplanEvent(position=500, expected_cost=12.5, reason="interval")
        assert event.position == 500
        assert event.expected_cost == 12.5
        assert event.reason == "interval"
        assert event.drift_score is None  # only profile-drift carries one

    def test_exactly_one_callback_per_replan(self, schema, query):
        received: list[ReplanEvent] = []
        executor = AdaptiveStreamExecutor(
            schema,
            query,
            factory,
            window=800,
            replan_interval=500,
            drift_threshold=None,
            on_replan=received.append,
        )
        report = executor.process(regime_stream(2600, flipped=False, seed=2))
        assert tuple(received) == report.replans
        assert len(received) == len(report.replans)

    def test_events_arrive_in_stream_order(self, schema, query):
        received: list[ReplanEvent] = []
        executor = AdaptiveStreamExecutor(
            schema,
            query,
            factory,
            window=800,
            replan_interval=400,
            drift_threshold=None,
            on_replan=received.append,
        )
        executor.process(regime_stream(2500, flipped=False, seed=3))
        positions = [event.position for event in received]
        assert positions == sorted(positions)
        assert len(set(positions)) == len(positions)

    def test_interval_replans_carry_no_drift_score(self, schema, query):
        executor = AdaptiveStreamExecutor(
            schema,
            query,
            factory,
            window=800,
            replan_interval=500,
            drift_threshold=None,
        )
        report = executor.process(regime_stream(2100, flipped=False, seed=4))
        assert report.replans
        for event in report.replans:
            assert event.reason == "interval"
            assert event.drift_score is None


class TestProfileDriftReplanning:
    def test_validation(self, schema, query):
        with pytest.raises(PlanningError):
            AdaptiveStreamExecutor(
                schema, query, factory, profile_drift_threshold=0.0
            )
        with pytest.raises(PlanningError):
            AdaptiveStreamExecutor(
                schema, query, factory, profile_check_every=0
            )
        with pytest.raises(PlanningError):
            AdaptiveStreamExecutor(
                schema, query, factory, profile_min_tuples=0
            )

    def test_injected_shift_triggers_profile_drift_replan(self, schema, query):
        """The acceptance scenario: interval and cost-ratio triggers are
        off, so only the DriftMonitor's chi-square score can fire — and
        it must, shortly after the regime flips."""
        before = regime_stream(3000, flipped=False, seed=5)
        after = regime_stream(3000, flipped=True, seed=6)
        stream = np.vstack([before, after])
        received: list[ReplanEvent] = []
        executor = AdaptiveStreamExecutor(
            schema,
            query,
            factory,
            window=1500,
            replan_interval=100_000,  # interval replans effectively off
            drift_threshold=None,  # cost-ratio trigger off
            profile_drift_threshold=25.0,
            profile_check_every=64,
            profile_min_tuples=256,
            on_replan=received.append,
        )
        report = executor.process(stream)
        drift_events = [
            event for event in report.replans if event.reason == "profile-drift"
        ]
        assert drift_events, "the injected shift must trigger a replan"
        first = drift_events[0]
        assert first.position > 3000  # only after the flip
        assert first.drift_score is not None and first.drift_score > 25.0
        assert tuple(received) == report.replans
        # Verdicts stay exact throughout the shift.
        truth = np.array([query.evaluate(row) for row in stream])
        assert np.array_equal(report.verdicts, truth)

    def test_no_spurious_drift_replans_in_distribution(self, schema, query):
        executor = AdaptiveStreamExecutor(
            schema,
            query,
            factory,
            window=1500,
            replan_interval=100_000,
            drift_threshold=None,
            profile_drift_threshold=25.0,
            profile_check_every=64,
            profile_min_tuples=256,
        )
        report = executor.process(regime_stream(5000, flipped=False, seed=7))
        reasons = {event.reason for event in report.replans}
        assert "profile-drift" not in reasons
