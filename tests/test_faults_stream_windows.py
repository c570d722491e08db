"""Failure paths of the windowed fault-injected stream loops.

Both stream executors run their fault-tolerant execution in windows and
cut a window where a trigger fires.  Each loop here must agree exactly
with its row-at-a-time twin (:mod:`tests.fault_reference`) on the cases
where windowing is most likely to go wrong: a retry budget that runs out
mid-stream, an outage burst still owed across a window cut, and
triggers that fire on the first tuple they may.  A property check then
recomputes every reported replan from the report's own ``costs`` and
``abstained`` and requires it at the first tuple its trigger holds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.execution import AdaptiveStreamExecutor
from repro.faults import (
    AttributeFaults,
    DegradationMode,
    FaultPolicy,
    FaultSchedule,
    FaultTolerantExecutor,
    RetryPolicy,
)
from repro.faults.policy import NO_RETRY
from repro.learn import LearnedStreamExecutor, adversarial_stream
from repro.planning import CorrSeqPlanner, GreedyConditionalPlanner

from tests.fault_reference import reference_adaptive, reference_learned


def factory(distribution):
    return GreedyConditionalPlanner(
        distribution, CorrSeqPlanner(distribution), max_splits=3
    )


def workload(seed, segment_length=120):
    return adversarial_stream(3, segment_length, seed=seed)


def on_p_and_q(workload, **rates):
    names = list(workload.schema.names)
    profile = AttributeFaults(**rates)
    return FaultSchedule({names.index("p"): profile, names.index("q"): profile})


def adaptive(workload, schedule, policy, seed, **kwargs):
    options = dict(window=80, replan_interval=70, drift_threshold=1.2)
    options.update(kwargs)
    return AdaptiveStreamExecutor(
        workload.schema,
        workload.query,
        factory,
        fault_schedule=schedule,
        fault_policy=policy,
        fault_rng=np.random.default_rng(seed),
        **options,
    )


def learned(workload, schedule, policy, seed):
    return LearnedStreamExecutor(
        workload.schema,
        workload.query,
        window=96,
        warmup=40,
        delta=0.2,
        burst_pulls=6,
        posterior_decay=0.95,
        fault_schedule=schedule,
        fault_policy=policy,
        fault_rng=np.random.default_rng(seed),
    )


def assert_same_report(windowed, reference):
    assert windowed.costs.tobytes() == reference.costs.tobytes()
    assert windowed.verdicts.tobytes() == reference.verdicts.tobytes()
    assert windowed.abstained.tobytes() == reference.abstained.tobytes()
    assert windowed.replans == reference.replans
    assert windowed.faults == reference.faults
    if windowed.pulls is not None or reference.pulls is not None:
        assert windowed.pulls.tobytes() == reference.pulls.tobytes()
        assert windowed.ledger == reference.ledger
        assert windowed.plan == reference.plan


def both_adaptive(workload, schedule, policy, seed, **kwargs):
    windowed = adaptive(workload, schedule, policy, seed, **kwargs).process(
        workload.data
    )
    reference = reference_adaptive(
        adaptive(workload, schedule, policy, seed, **kwargs), workload.data
    )
    assert_same_report(windowed, reference)
    return windowed


def both_learned(workload, schedule, policy, seed):
    windowed = learned(workload, schedule, policy, seed).process(workload.data)
    reference = reference_learned(
        learned(workload, schedule, policy, seed), workload.data
    )
    assert_same_report(windowed, reference)
    return windowed


@pytest.mark.parametrize("mode", list(DegradationMode))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_both_loops_match_their_per_tuple_twins(seed, mode):
    stream = workload(seed)
    schedule = on_p_and_q(
        stream,
        drop_rate=0.05,
        timeout_rate=0.02,
        outage_rate=0.03,
        outage_length=9,
        stuck_rate=0.03,
        noise_rate=0.03,
    )
    policy = FaultPolicy(
        retry=RetryPolicy(max_retries=2, default_budget=40),
        degradation=mode,
        outage_replan_threshold=0.3,
        outage_window=16,
    )
    both_adaptive(stream, schedule, policy, seed)
    both_learned(stream, schedule, policy, seed)


@pytest.mark.parametrize("seed", [0, 4, 5])
def test_order_swaps_and_refits_cut_learned_windows(seed):
    # Warm-up ends on a regime boundary, so the validation burst runs on
    # the other regime and dethrones the warm-up's incumbent mid-window.
    stream = adversarial_stream(4, 60, seed=seed)
    schedule = on_p_and_q(stream, drop_rate=0.05, outage_rate=0.02, outage_length=5)
    policy = FaultPolicy(
        retry=RetryPolicy(max_retries=1),
        outage_replan_threshold=0.4,
        outage_window=12,
    )

    def build():
        return LearnedStreamExecutor(
            stream.schema,
            stream.query,
            window=60,
            warmup=60,
            delta=0.3,
            burst_pulls=6,
            posterior_decay=0.9,
            fault_schedule=schedule,
            fault_policy=policy,
            fault_rng=np.random.default_rng(seed),
        )

    windowed = build().process(stream.data)
    assert_same_report(windowed, reference_learned(build(), stream.data))
    assert {e.reason for e in windowed.replans} & {"order-swap", "outage"}


class TestRetryBudgetRunsOutMidStream:
    policy = FaultPolicy(
        retry=RetryPolicy(max_retries=3, default_budget=6),
        degradation=DegradationMode.SKIP,
    )

    def check(self, report, stream):
        # Both faulty attributes spend their whole budget, and tuples keep
        # degrading after it is gone.
        assert report.faults.retries_total == 12
        degraded = np.flatnonzero(report.abstained)
        assert degraded.size and degraded[-1] > len(stream.data) // 2

    def test_adaptive(self):
        stream = workload(3)
        schedule = on_p_and_q(stream, drop_rate=0.3)
        self.check(both_adaptive(stream, schedule, self.policy, 3), stream)

    def test_learned(self):
        stream = workload(4)
        schedule = on_p_and_q(stream, drop_rate=0.3)
        self.check(both_learned(stream, schedule, self.policy, 4), stream)


class TestOutageBurstStraddlesACut:
    @pytest.fixture
    def owed_at_window_starts(self, monkeypatch):
        """Outage attempts still owed whenever a window starts mid-stream."""
        owed = []
        run = FaultTolerantExecutor.run

        def spy(self, plan, data, *args, state=None, first_row=0, **kwargs):
            if state is not None and first_row > 0:
                owed.append(sum(state.outage_remaining.values()))
            return run(self, plan, data, *args, state=state, first_row=first_row, **kwargs)

        monkeypatch.setattr(FaultTolerantExecutor, "run", spy)
        return owed

    def test_adaptive(self, owed_at_window_starts):
        stream = workload(5)
        # Bursts of 40 attempts outlast the windows between replans.
        schedule = on_p_and_q(stream, outage_rate=0.04, outage_length=40)
        policy = FaultPolicy(retry=RetryPolicy(max_retries=1))
        both_adaptive(stream, schedule, policy, 5, replan_interval=30)
        assert any(owed_at_window_starts), "no burst straddled a window cut"

    def test_learned(self, owed_at_window_starts):
        stream = workload(6)
        schedule = on_p_and_q(stream, outage_rate=0.04, outage_length=40)
        policy = FaultPolicy(
            retry=RetryPolicy(max_retries=1),
            outage_replan_threshold=0.5,
            outage_window=12,
        )
        report = both_learned(stream, schedule, policy, 6)
        assert any(e.reason == "outage" for e in report.replans)
        assert any(owed_at_window_starts), "no burst straddled a window cut"


class TestTriggerOnTheFirstEligibleTuple:
    def test_drift_fires_on_the_first_tuple_it_may(self):
        # Retry surcharges push every window's running mean far above the
        # plan's fault-free prediction, so drift fires as soon as it may:
        # on the 50th tuple after each replan.
        stream = workload(7, segment_length=200)
        schedule = on_p_and_q(stream, drop_rate=0.5)
        policy = FaultPolicy(retry=RetryPolicy(max_retries=3))
        report = both_adaptive(
            stream, schedule, policy, 7, replan_interval=500, drift_threshold=1.01
        )
        drifts = [e for e in report.replans if e.reason == "drift"]
        assert len(drifts) >= 3
        positions = [e.position for e in report.replans]
        assert all(b - a == 50 for a, b in zip(positions, positions[1:]))

    def test_outage_fires_on_the_first_tuple_after_a_replan(self):
        # Every tuple fails its first read; interval replans every 7 tuples
        # keep the outage window, which fills on the 8th: the outage
        # trigger fires on the first tuple after an interval replan, so
        # the window is cut before its second row.
        stream = workload(8)
        names = list(stream.schema.names)
        schedule = FaultSchedule.uniform(stream.schema, drop_rate=1.0)
        assert len(names) == len(schedule.profiles)
        policy = FaultPolicy(
            retry=NO_RETRY, outage_replan_threshold=0.5, outage_window=8
        )
        report = both_adaptive(
            stream, schedule, policy, 8, window=40, replan_interval=7
        )
        events = report.replans
        assert any(
            later.reason == "outage"
            and earlier.reason == "interval"
            and later.position == earlier.position + 1
            for earlier, later in zip(events, events[1:])
        )


def expected_adaptive_replans(report, executor, policy, total):
    """The replan positions and reasons the trigger rules imply, from the report."""
    costs, fails = report.costs, report.abstained
    first = report.replans[0]
    expected = [(first.position, "interval")]
    start, predicted = first.position, first.expected_cost
    outage_start = 0
    window = policy.outage_window
    threshold = policy.outage_replan_threshold
    events = iter(report.replans[1:])
    spent = 0.0
    position = start
    while position < total:
        since = position - start + 1
        spent += float(costs[position])
        drifted = (
            executor._drift_threshold is not None
            and since >= 50
            and predicted > 0.0
            and spent / since > executor._drift_threshold * predicted
        )
        recent = fails[max(outage_start, position + 1 - window) : position + 1]
        outage = (
            threshold is not None
            and position + 1 - outage_start >= window
            and recent.sum() / window >= threshold
        )
        if since >= executor._replan_interval or drifted or outage:
            reason = "outage" if outage else "drift" if drifted else "interval"
            expected.append((position + 1, reason))
            event = next(events)
            start, predicted, spent = position + 1, event.expected_cost, 0.0
            if outage:
                outage_start = position + 1
        position += 1
    return expected


@given(
    seed=st.integers(0, 10_000),
    drop=st.sampled_from([0.02, 0.1, 0.3]),
    outage=st.sampled_from([0.0, 0.02, 0.08]),
    threshold=st.sampled_from([0.2, 0.4, 0.7]),
)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_replans_sit_on_the_first_tuple_their_trigger_holds(
    seed, drop, outage, threshold
):
    stream = adversarial_stream(3, 80, seed=seed)
    schedule = on_p_and_q(stream, drop_rate=drop, outage_rate=outage, outage_length=6)
    policy = FaultPolicy(
        retry=RetryPolicy(max_retries=1),
        degradation=DegradationMode.ABSTAIN,
        outage_replan_threshold=threshold,
        outage_window=10,
    )
    total = len(stream.data)

    executor = adaptive(stream, schedule, policy, seed, window=60, replan_interval=55)
    report = executor.process(stream.data)
    assert [(e.position, e.reason) for e in report.replans] == (
        expected_adaptive_replans(report, executor, policy, total)
    )

    report = learned(stream, schedule, policy, seed).process(stream.data)
    warmup = report.replans[0].position
    outages = [e.position for e in report.replans if e.reason == "outage"]
    expected = []
    outage_start = 0
    for position in range(warmup, total):
        recent = report.abstained[
            max(outage_start, position + 1 - policy.outage_window) : position + 1
        ]
        if (
            position + 1 - outage_start >= policy.outage_window
            and recent.sum() / policy.outage_window >= threshold
        ):
            expected.append(position + 1)
            outage_start = position + 1
    assert outages == expected
