"""Differential suite: the windowed fault-tolerant executor vs the per-tuple walk.

:class:`~repro.faults.FaultTolerantExecutor` runs a window of rows at
once: a vectorised clean walk, one vectorised roll of the row-keyed dice,
and a row-ordered degraded walk of just the rows a die lands on.  The
reference arm (:mod:`tests.fault_reference`) is the row-at-a-time walk
through one :class:`~repro.faults.FaultInjector`, rolling the same dice.
On every plan, schedule, policy and window split the two must agree
exactly: per-row cost, base, retry, verdict, abstention, failed,
imputed, degraded and observed values, and the run counters.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Attribute, ConjunctiveQuery, RangePredicate, Schema
from repro.core.cost import dataset_execution
from repro.exceptions import AcquisitionFailure, FaultConfigError, PlanError
from repro.execution import TupleSource
from repro.faults import (
    AttributeFaults,
    DegradationMode,
    FaultInjector,
    FaultPolicy,
    FaultSchedule,
    FaultState,
    FaultTolerantExecutor,
    RetryPolicy,
    fault_dice,
)
from repro.faults.executor import query_read_plan
from repro.faults.state import noise_bits
from repro.planning import CorrSeqPlanner, GreedyConditionalPlanner
from repro.probability import EmpiricalDistribution

from tests.conftest import correlated_dataset
from tests.fault_reference import ReferenceExecutor
from tests.test_faults_chaos import PLANNERS

SCHEDULES = {
    "drops-and-timeouts": lambda schema: FaultSchedule.uniform(
        schema, drop_rate=0.2, timeout_rate=0.05
    ),
    # Bursts of 9 attempts outlast a 7-row window and straddle its edges.
    "straddling-bursts": lambda schema: FaultSchedule(
        profiles={
            0: AttributeFaults(outage_rate=0.08, outage_length=9),
            1: AttributeFaults(outage_rate=0.05, outage_length=9, drop_rate=0.1),
        }
    ),
    "corrupting": lambda schema: FaultSchedule(
        profiles={
            0: AttributeFaults(stuck_rate=0.3, drop_rate=0.05),
            1: AttributeFaults(noise_rate=0.3, noise_scale=2),
            2: AttributeFaults(stuck_rate=0.2, noise_rate=0.2, timeout_rate=0.1),
        }
    ),
    "everything": lambda schema: FaultSchedule(
        profiles={
            index: AttributeFaults(
                drop_rate=0.08,
                timeout_rate=0.04,
                outage_rate=0.04,
                stuck_rate=0.08,
                noise_rate=0.08,
                outage_length=5,
            )
            for index in range(len(schema))
        }
    ),
}

RETRIES = {
    "two-retries": RetryPolicy(max_retries=2),
    # A budget of 4 per attribute runs out within the first few windows.
    "budget-runs-out": RetryPolicy(max_retries=3, default_budget=4),
}

WINDOWS = (1, 7, None)


@pytest.fixture(scope="module")
def instance():
    schema, data = correlated_dataset(n_rows=1100, seed=5)
    train, test = data[:900], data[900:1020]
    distribution = EmpiricalDistribution(schema, train, smoothing=0.5)
    query = ConjunctiveQuery(
        schema, [RangePredicate("a", 1, 2), RangePredicate("b", 3, 5)]
    )
    return schema, distribution, query, test


@pytest.fixture(scope="module")
def plans(instance):
    _schema, distribution, query, _test = instance
    return {
        name: build(distribution).plan(query).plan
        for name, build in PLANNERS.items()
    }


def run_windows(executor, plan, data, schedule, seed, cuts, read_all=False):
    """Run ``data`` as consecutive windows split at ``cuts``."""
    bounds = [0, *cuts, len(data)]
    results = []
    state = None
    for start, end in zip(bounds, bounds[1:]):
        if state is None:
            window = executor.run(
                plan,
                data[start:end],
                schedule,
                np.random.default_rng(seed),
                read_all=read_all,
            )
        else:
            window = executor.run(
                plan, data[start:end], state=state, first_row=start, read_all=read_all
            )
        state = window.state
        results.extend(window.results)
    return results, state


def counters(state):
    """The run counters both arms must agree on."""
    return (
        state.attempts,
        state.retries_total,
        state.failures,
        state.corruptions,
        state.retry_cost,
        state.outage_remaining,
        state.budget_spent,
    )


def cuts_for(size, rows):
    return [] if size is None else list(range(size, rows, size))


def assert_matches_reference(executor, plan, data, schedule, seed, read_all=False):
    reference, injector = ReferenceExecutor(executor).run(
        plan, data, schedule, np.random.default_rng(seed), read_all=read_all
    )
    for size in WINDOWS:
        results, state = run_windows(
            executor, plan, data, schedule, seed, cuts_for(size, len(data)), read_all
        )
        for row, (windowed, expected) in enumerate(zip(results, reference)):
            assert windowed == expected, f"row {row}, windows of {size}"
        assert len(results) == len(reference)
        assert counters(state) == counters(injector.state)


@pytest.mark.parametrize("retry_name", sorted(RETRIES))
@pytest.mark.parametrize("confirm", [True, False])
@pytest.mark.parametrize("mode", list(DegradationMode))
@pytest.mark.parametrize("schedule_name", sorted(SCHEDULES))
def test_every_planner_matches_the_per_tuple_walk(
    instance, plans, schedule_name, mode, confirm, retry_name
):
    schema, distribution, query, test = instance
    policy = FaultPolicy(
        retry=RETRIES[retry_name], degradation=mode, confirm_positives=confirm
    )
    executor = FaultTolerantExecutor(
        schema, policy, query=query, distribution=distribution
    )
    schedule = SCHEDULES[schedule_name](schema)
    for plan in plans.values():
        assert_matches_reference(executor, plan, test, schedule, seed=23)


@pytest.mark.parametrize("mode", list(DegradationMode))
@pytest.mark.parametrize("schedule_name", sorted(SCHEDULES))
def test_read_all_matches_the_per_tuple_read(instance, plans, schedule_name, mode):
    schema, distribution, query, test = instance
    policy = FaultPolicy(retry=RETRIES["budget-runs-out"], degradation=mode)
    executor = FaultTolerantExecutor(
        schema, policy, query=query, distribution=distribution
    )
    schedule = SCHEDULES[schedule_name](schema)
    sequential = plans["optseq"]
    for plan in (query_read_plan(query), sequential):
        assert_matches_reference(executor, plan, test, schedule, 5, read_all=True)


def test_budget_runs_out_mid_window(instance, plans):
    schema, distribution, query, test = instance
    policy = FaultPolicy(
        retry=RetryPolicy(max_retries=5, default_budget=3),
        degradation=DegradationMode.SKIP,
    )
    executor = FaultTolerantExecutor(schema, policy, query=query)
    schedule = FaultSchedule(profiles={0: AttributeFaults(drop_rate=0.6)})
    plan = plans["greedy-split"]
    first = executor.run(plan, test[:7], schedule, np.random.default_rng(1))
    assert first.state.budget_spent == {0: 3}  # spent inside the first window
    rest = executor.run(plan, test[7:], state=first.state, first_row=7)
    assert rest.state.retries_total == 3  # no retries once the budget is gone
    assert rest.tuples_degraded > 0
    assert_matches_reference(executor, plan, test, schedule, seed=1)


@pytest.mark.parametrize("planner_name", sorted(PLANNERS))
def test_zero_schedule_is_byte_identical_to_dataset_execution(
    instance, plans, planner_name
):
    schema, distribution, query, test = instance
    plan = plans[planner_name]
    plain = dataset_execution(plan, test, schema)
    executor = FaultTolerantExecutor(
        schema,
        FaultPolicy(degradation=DegradationMode.IMPUTE),
        query=query,
        distribution=distribution,
    )
    for schedule in (FaultSchedule.zero(), FaultSchedule.uniform(schema)):
        for size in WINDOWS:
            rng = np.random.default_rng(9)
            costs, verdicts = [], []
            state = FaultState.fresh(schedule, rng)
            for start, end in itertools.pairwise(
                [0, *cuts_for(size, len(test)), len(test)]
            ):
                window = executor.run(
                    plan, test[start:end], state=state, first_row=start
                )
                state = window.state
                costs.append(window.costs)
                verdicts.append(window.verdicts)
                assert not window.abstains.any()
                assert not window.degraded.any()
            assert np.concatenate(costs).tobytes() == plain.costs.tobytes()
            assert np.array_equal(np.concatenate(verdicts), plain.verdicts)
            assert state.retries_total == 0 and state.acquisitions_failed == 0
            # Zero profiles never touch the generator.
            assert rng.random() == np.random.default_rng(9).random()


class TestDice:
    def test_block_equals_scalar_dice(self):
        state = FaultState.fresh(FaultSchedule.zero(), np.random.default_rng(3))
        rows = np.arange(40, 52, dtype=np.uint64)[:, None, None]
        attributes = np.array([0, 3, 7], dtype=np.uint64)[None, :, None]
        attempts = np.arange(4, dtype=np.uint64)
        uniform, hashed = fault_dice(state.key.value, rows, attributes, attempts)
        assert uniform.shape == (12, 3, 4)
        assert ((uniform >= 0.0) & (uniform < 1.0)).all()
        noise = noise_bits(hashed)
        for r, a, t in itertools.product(range(12), range(3), range(4)):
            die = state.die(40 + r, int(attributes[0, a, 0]), t)
            assert die == (float(uniform[r, a, t]), int(noise[r, a, t]))

    def test_dice_are_roughly_uniform_and_independent_of_lane(self):
        uniform, _ = fault_dice(
            7, np.arange(20_000)[:, None], np.array([1, 2])[None, :], 0
        )
        assert abs(uniform.mean() - 0.5) < 0.01
        assert abs(np.corrcoef(uniform[:, 0], uniform[:, 1])[0, 1]) < 0.03

    def test_run_key_drawn_once_and_shared_by_copies(self):
        rng = np.random.default_rng(4)
        state = FaultState.fresh(FaultSchedule({0: AttributeFaults(drop_rate=0.5)}), rng)
        twin = state.copy()
        key = state.key.value
        assert twin.key.value == key
        expected = np.random.default_rng(4)
        assert key == int(expected.integers(0, 2**64, dtype=np.uint64))
        assert rng.random() == expected.random()

    def test_injector_rolls_the_row_keyed_dice(self):
        schema = Schema([Attribute("x", 4, 1.0), Attribute("y", 4, 2.0)])
        schedule = FaultSchedule({1: AttributeFaults(drop_rate=0.5)})
        injector = FaultInjector(
            TupleSource(schema, [1, 2]), schedule, np.random.default_rng(0)
        )
        key = injector.state.key.value
        for row in range(40):
            assert injector.row == row
            uniform, _ = fault_dice(key, row, 1, 0)
            try:
                injector.acquire(1)
                assert uniform[0] >= 0.5
            except AcquisitionFailure:
                assert uniform[0] < 0.5
            injector.rebind(TupleSource(schema, [3, 3]))


def test_run_rejects_mixed_start_arguments(instance, plans):
    schema, _distribution, query, test = instance
    executor = FaultTolerantExecutor(schema, query=query)
    state = FaultState.fresh(FaultSchedule.zero(), np.random.default_rng(0))
    with pytest.raises(FaultConfigError, match="either schedule and rng, or state"):
        executor.run(
            plans["naive"], test, FaultSchedule.zero(), np.random.default_rng(0), state=state
        )
    with pytest.raises(FaultConfigError, match="needs a schedule and rng"):
        executor.run(plans["naive"], test)
    with pytest.raises(PlanError, match="sequential"):
        executor.run(plans["greedy-split"], test, state=state, read_all=True)


@st.composite
def storms(draw):
    """A random instance, fault schedule, policy, seed and window split."""
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    width = draw(st.integers(2, 4))
    domains = [int(rng.integers(2, 6)) for _ in range(width)]
    # Non-integral costs make any change in charge order visible.
    costs = [float(rng.choice([0.1, 0.7, 1.3, 2.9, 10.0])) for _ in range(width)]
    schema = Schema([Attribute(f"x{i}", domains[i], costs[i]) for i in range(width)])
    rows = draw(st.integers(20, 70))
    driver = rng.integers(1, domains[0] + 1, size=rows)
    columns = [driver] + [
        np.clip((driver + rng.integers(0, 2, size=rows)) % domains[i] + 1, 1, domains[i])
        for i in range(1, width)
    ]
    data = np.stack(columns, axis=1).astype(np.int64)
    predicates = []
    for i in range(1, 1 + draw(st.integers(1, width - 1))):
        low = draw(st.integers(1, domains[i]))
        predicates.append(RangePredicate(f"x{i}", low, draw(st.integers(low, domains[i]))))
    query = ConjunctiveQuery(schema, predicates)
    distribution = EmpiricalDistribution(schema, data, smoothing=0.5)
    plan = GreedyConditionalPlanner(
        distribution, CorrSeqPlanner(distribution), max_splits=2
    ).plan(query).plan
    profiles = {}
    for index in range(width):
        if draw(st.booleans()):
            rates = [draw(st.sampled_from([0.0, 0.05, 0.2, 0.4])) for _ in range(5)]
            scale = sum(rates)
            if scale > 1.0:
                rates = [rate / scale for rate in rates]
            profiles[index] = AttributeFaults(
                *rates,
                outage_length=draw(st.integers(1, 10)),
                noise_scale=draw(st.integers(1, 3)),
            )
    budget = draw(st.one_of(st.none(), st.integers(0, 6)))
    policy = FaultPolicy(
        retry=RetryPolicy(max_retries=draw(st.integers(0, 3)), default_budget=budget),
        degradation=draw(st.sampled_from(list(DegradationMode))),
        confirm_positives=draw(st.booleans()),
    )
    cuts = sorted(set(draw(st.lists(st.integers(1, rows - 1), max_size=6))))
    read_all = draw(st.booleans())
    return schema, data, query, distribution, plan, FaultSchedule(profiles), policy, seed, cuts, read_all


@given(storms())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_window_split_matches_the_per_tuple_walk(storm):
    schema, data, query, distribution, plan, schedule, policy, seed, cuts, read_all = storm
    executor = FaultTolerantExecutor(schema, policy, query=query, distribution=distribution)
    if read_all:
        plan = query_read_plan(query)
    reference, injector = ReferenceExecutor(executor).run(
        plan, data, schedule, np.random.default_rng(seed), read_all=read_all
    )
    results, state = run_windows(executor, plan, data, schedule, seed, cuts, read_all)
    assert results == reference
    assert counters(state) == counters(injector.state)
    whole, _ = run_windows(executor, plan, data, schedule, seed, [], read_all)
    assert whole == results
