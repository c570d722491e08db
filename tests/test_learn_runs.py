"""Per-run work done once, checked bit for bit against per-tuple oracles.

Three shortcuts of the faulted stream path each replace a loop whose
floats they must reproduce exactly, so every comparison is by
``float.hex()``:

- a served run booked in one :meth:`BranchBandit.record_run` call equals
  a loop of ``record(served, c)``;
- :meth:`ArmSpace.prices` (one counted pass) equals each arm's
  :func:`expected_cost` walk and its sequential-conditioner walk;
- :meth:`FaultedDatasetExecution.state_at` equals re-running the kept
  prefix from the window's start state.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import Attribute, ConjunctiveQuery, RangePredicate, Schema
from repro.core.cost import expected_cost
from repro.core.cost_models import BoardAwareCostModel
from repro.core.plan import SequentialNode
from repro.core.ranges import Range, RangeVector
from repro.exceptions import LearningError
from repro.execution.streaming import OUTAGE, WindowRun
from repro.faults import AttributeFaults, FaultPolicy, FaultSchedule
from repro.faults.executor import FaultTolerantExecutor
from repro.faults.policy import DegradationMode, RetryPolicy
from repro.faults.state import FaultState
from repro.learn import LearnedStreamExecutor
from repro.learn.arms import ArmSpace
from repro.learn.bandit import BranchBandit
from repro.learn.ledger import RegretLedger
from repro.learn.stream import _BanditPolicy
from repro.learn.workloads import adversarial_stream
from repro.planning import GreedyConditionalPlanner, OptimalSequentialPlanner
from repro.probability import ChowLiuDistribution, EmpiricalDistribution

# ----------------------------------------------------------------------
# Shared fixtures: a three-predicate query over correlated columns.
# ----------------------------------------------------------------------

_SCHEMA = Schema(
    [
        Attribute("mode", 4, 1.0),
        Attribute("a", 5, 40.0),
        Attribute("b", 5, 30.0),
        Attribute("c", 4, 20.0),
        Attribute("d", 3, 5.0),
    ]
)
_QUERY = ConjunctiveQuery(
    _SCHEMA,
    [
        RangePredicate("a", 1, 3),
        RangePredicate("b", 2, 4),
        RangePredicate("c", 2, 3),
    ],
)


def _rows(count: int = 600, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    mode = rng.integers(1, 5, count)
    a = np.where(mode <= 2, rng.integers(1, 3, count), rng.integers(3, 6, count))
    b = np.clip(a + rng.integers(-1, 2, count), 1, 5)
    c = np.where(mode % 2 == 0, rng.integers(1, 3, count), rng.integers(2, 5, count))
    d = rng.integers(1, 4, count)
    return np.stack([mode, a, b, c, d], axis=1).astype(np.int64)


def _hex(values) -> list[str]:
    return [value.hex() for value in values]


# ----------------------------------------------------------------------
# Run booking
# ----------------------------------------------------------------------


def _branch(decay: float) -> BranchBandit:
    """A served (non-burst) branch with fractional, non-trivial posteriors."""
    distribution = EmpiricalDistribution(_SCHEMA, _rows(), smoothing=0.5)
    space = ArmSpace(_QUERY, RangeVector.full(_SCHEMA))
    priors, rates = space.prices(distribution)
    branch = BranchBandit(
        "root",
        space,
        priors,
        RegretLedger(1e6),
        span=90.0,
        delta=0.1,
        burst_pulls=4,
        decay=decay,
        step_rates=rates,
    )
    # A burst spreads evidence over every arm; the warm start closes it
    # with fractional weights; a few step traces populate the detector's
    # moments without letting it fire.
    for k in range(6):
        replayed = [30.0 + 7.3 * arm + k for arm in range(len(space))]
        branch.record_full(70.0 + k, replayed)
    branch.warm_start(priors, 0.37, rates)
    for k in range(3):
        branch.record(branch.served, 41.5 + k / 3.0, (True, k % 2 == 0))
    assert not branch.bursting
    return branch


def _state(branch: BranchBandit) -> list:
    """Every float and counter a booking touches, floats as hex."""
    ledger = branch._ledger.snapshot()
    return [
        branch.served,
        branch.rounds,
        [(p.pulls, p.weight.hex(), p.cost_sum.hex()) for p in branch._posteriors],
        [(m.weight.hex(), m.total.hex(), m.squares.hex()) for m in branch._paired],
        [(m.weight.hex(), m.total.hex(), m.squares.hex()) for m in branch._step_obs],
        ledger.base_cost.hex(),
        ledger.exploration_cost.hex(),
        ledger.exploit_pulls,
        ledger.exploration_pulls,
    ]


class TestRunBooking:
    @pytest.mark.parametrize("decay", [1.0, 0.95])
    @pytest.mark.parametrize("length", [0, 1, 2, 37])
    def test_run_equals_a_loop_of_records(self, decay, length):
        rng = np.random.default_rng(length)
        costs = (rng.random(length) * 90.0).tolist()
        booked, looped = _branch(decay), _branch(decay)
        booked.record_run(costs)
        for cost in costs:
            looped.record(looped.served, cost)
        assert _state(booked) == _state(looped)

    @pytest.mark.parametrize("decay", [1.0, 0.95])
    def test_runs_compose(self, decay):
        costs = [40.0, 12.5, 0.0, 71.25, 3.0]
        split, whole = _branch(decay), _branch(decay)
        split.record_run(costs[:2])
        split.record_run(costs[2:])
        whole.record_run(costs)
        assert _state(split) == _state(whole)

    @pytest.mark.parametrize("cost", [math.nan, -1.0, math.inf])
    def test_bad_cost_raises_before_booking(self, cost):
        branch = _branch(0.95)
        before = _state(branch)
        with pytest.raises(LearningError):
            branch.record_run([10.0, cost, 5.0])
        assert _state(branch) == before


def _faulted_policy() -> _BanditPolicy:
    stream = adversarial_stream(3, 90, seed=11)
    names = list(stream.schema.names)
    profile = AttributeFaults(drop_rate=0.05, outage_rate=0.02, outage_length=5)
    executor = LearnedStreamExecutor(
        stream.schema,
        stream.query,
        window=96,
        warmup=48,
        burst_pulls=4,
        posterior_decay=0.95,
        fault_schedule=FaultSchedule({names.index("p"): profile}),
        fault_rng=np.random.default_rng(2),
        fault_policy=FaultPolicy(outage_replan_threshold=0.5),
    )
    policy = _BanditPolicy(executor)
    policy.start(400, lambda event: None)
    distribution = EmpiricalDistribution(stream.schema, stream.data[:96])
    policy.refit(96, "warmup", distribution, None)
    # Close the fresh branch's validation burst so the window is served.
    branch = policy._ensemble.branches[0]
    priors, rates = branch.arm_space.prices(distribution)
    branch.warm_start(priors, 0.5, rates)
    return policy


class TestServedWindowScan:
    """The policy books a served window up to its first outage row."""

    @pytest.mark.parametrize("cut", [None, 0, 5, 29])
    def test_scan_books_the_kept_prefix(self, cut):
        rows = 30
        costs = np.linspace(1.0, 80.0, rows)
        outage = np.zeros(rows, dtype=bool)
        if cut is not None:
            outage[cut] = True
            outage[min(cut + 3, rows - 1)] = True
        scanned, oracle = _faulted_policy(), _faulted_policy()
        step = scanned.next_window(200, 400)
        oracle.next_window(200, 400)
        assert not step.read_all
        run = WindowRun(
            200,
            costs,
            outage,
            np.zeros(rows, dtype=bool),
            np.zeros((rows, 4), dtype=np.int64),
        )
        kept, reason, score = scanned.scan(run)
        expected = rows if cut is None else cut + 1
        assert kept == expected and score is None
        assert reason == (None if cut is None else OUTAGE)
        branch = oracle._ensemble.branches[0]
        for offset, cost in enumerate(costs[:expected].tolist()):
            branch.record(branch.served, cost)
            oracle._pulls[200 + offset] = branch.served
        assert _state(scanned._ensemble.branches[0]) == _state(branch)
        assert scanned._pulls.tobytes() == oracle._pulls.tobytes()


# ----------------------------------------------------------------------
# Counted priors and step rates
# ----------------------------------------------------------------------


def _walked(space: ArmSpace, distribution, cost_model=None) -> tuple[list, list]:
    """The per-arm walks: Eq. 3 and the sequential conditioner."""
    priors = [
        expected_cost(arm.plan, distribution, space.context, cost_model)
        for arm in space.arms
    ]
    rates = []
    for arm in space.arms:
        if not isinstance(arm.plan, SequentialNode):
            rates.append(())
            continue
        conditioner = distribution.sequential_conditioner(space.context)
        steps = []
        for step in arm.plan.steps:
            binding = (step.predicate, step.attribute_index)
            steps.append(conditioner.pass_probability(binding))
            conditioner.condition_on(binding)
        rates.append(tuple(steps))
    return priors, rates


def _assert_counted_equals_walk(space, distribution, cost_model=None) -> None:
    priors, rates = space.prices(distribution, cost_model)
    walked_priors, walked_rates = _walked(space, distribution, cost_model)
    assert _hex(priors) == _hex(walked_priors)
    assert [_hex(arm) for arm in rates] == [_hex(arm) for arm in walked_rates]
    assert space.priors(distribution, cost_model) == priors
    assert space.step_rates(distribution) == rates


_CONTEXTS = {
    "full": RangeVector.full(_SCHEMA),
    # ``mode`` and ``d`` acquired; every predicate still undetermined.
    "acquired": RangeVector.full(_SCHEMA)
    .with_range(0, Range(2, 4))
    .with_range(4, Range(1, 2)),
    # ``a`` acquired, its predicate still undetermined: a free step.
    "acquired-predicate": RangeVector.full(_SCHEMA).with_range(1, Range(2, 5)),
    # ``c``'s predicate decided true: two predicates left.
    "decided": RangeVector.full(_SCHEMA).with_range(3, Range(2, 3)),
}


class TestCountedPrices:
    @pytest.mark.parametrize("smoothing", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("context", sorted(_CONTEXTS))
    def test_empirical(self, smoothing, context):
        distribution = EmpiricalDistribution(_SCHEMA, _rows(), smoothing=smoothing)
        space = ArmSpace(_QUERY, _CONTEXTS[context])
        assert len(space) > 1
        _assert_counted_equals_walk(space, distribution)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_histories(self, seed):
        rng = np.random.default_rng(seed)
        data = np.stack(
            [rng.integers(1, attribute.domain_size + 1, 40) for attribute in _SCHEMA],
            axis=1,
        )
        for smoothing in (0.0, 0.5):
            distribution = EmpiricalDistribution(_SCHEMA, data, smoothing=smoothing)
            for context in _CONTEXTS.values():
                _assert_counted_equals_walk(ArmSpace(_QUERY, context), distribution)

    def test_unseen_conditioning_event_unsmoothed(self):
        # ``a`` in 1..3 never meets ``b`` in 2..4, so every order's second
        # step conditions on an event no row satisfies: the conditioner
        # falls back to the marginal, and so must the count.
        rows = _rows()
        rows[:, 2] = np.where(rows[:, 1] <= 3, 5, rows[:, 2])
        distribution = EmpiricalDistribution(_SCHEMA, rows, smoothing=0.0)
        space = ArmSpace(_QUERY, RangeVector.full(_SCHEMA))
        _assert_counted_equals_walk(space, distribution)
        rates = space.step_rates(distribution)
        assert any(arm[1] == 0.0 or arm[2] == 0.0 for arm in rates)

    @pytest.mark.parametrize("smoothing", [0.0, 0.5])
    def test_context_without_rows(self, smoothing):
        # mode 1 only ever has a in 1..2, so no row reaches a in 3..5,
        # where the predicate on a is still undetermined.
        distribution = EmpiricalDistribution(_SCHEMA, _rows(), smoothing=smoothing)
        context = RangeVector.full(_SCHEMA).with_range(0, Range(1, 1))
        context = context.with_range(1, Range(3, 5))
        assert distribution.rows_matching(context).size == 0
        space = ArmSpace(_QUERY, context)
        assert len(space) == 6
        _assert_counted_equals_walk(space, distribution)

    @pytest.mark.parametrize("context", sorted(_CONTEXTS))
    def test_board_aware_cost_model(self, context):
        distribution = EmpiricalDistribution(_SCHEMA, _rows(), smoothing=0.5)
        model = BoardAwareCostModel(
            _SCHEMA, {1: "weather", 2: "weather", 4: "weather"}, power_up_cost=25.0
        )
        space = ArmSpace(_QUERY, _CONTEXTS[context])
        _assert_counted_equals_walk(space, distribution, model)

    def test_verdict_branch(self):
        distribution = EmpiricalDistribution(_SCHEMA, _rows())
        context = RangeVector.full(_SCHEMA).with_range(1, Range(4, 5))
        space = ArmSpace(_QUERY, context)
        assert space.prices(distribution) == ((0.0,), ((),))
        _assert_counted_equals_walk(space, distribution)

    def test_chow_liu_takes_the_walk(self, monkeypatch):
        distribution = ChowLiuDistribution(_SCHEMA, _rows())
        space = ArmSpace(_QUERY, RangeVector.full(_SCHEMA))
        walks = []
        original = distribution.sequential_conditioner

        def counting(context):
            walks.append(context)
            return original(context)

        monkeypatch.setattr(distribution, "sequential_conditioner", counting)
        priors, rates = space.prices(distribution)
        assert walks  # no outcome counter: each arm is walked
        monkeypatch.undo()
        walked_priors, walked_rates = _walked(space, distribution)
        assert _hex(priors) == _hex(walked_priors)
        assert [_hex(arm) for arm in rates] == [_hex(arm) for arm in walked_rates]


# ----------------------------------------------------------------------
# Cut-window state
# ----------------------------------------------------------------------

_STATE_FIELDS = (
    "outage_remaining",
    "budget_spent",
    "last_delivered",
    "attempts",
    "retries_total",
    "failures",
    "corruptions",
)


def _fault_state(state: FaultState) -> list:
    return [getattr(state, name) for name in _STATE_FIELDS] + [state.retry_cost.hex()]


_PROFILES = {
    "stuck": AttributeFaults(stuck_rate=0.3, drop_rate=0.05),
    "noise": AttributeFaults(noise_rate=0.3, noise_scale=2, timeout_rate=0.05),
    "outage": AttributeFaults(outage_rate=0.08, outage_length=5, drop_rate=0.05),
    "mixed": AttributeFaults(
        drop_rate=0.05, outage_rate=0.04, stuck_rate=0.15, noise_rate=0.1
    ),
}


def _window_case(profile: str, degradation: DegradationMode, budget: int | None):
    rows = _rows(800, seed=9)
    distribution = EmpiricalDistribution(_SCHEMA, rows[:300], smoothing=0.5)
    plan = GreedyConditionalPlanner(
        distribution, OptimalSequentialPlanner(distribution), max_splits=3
    ).plan(_QUERY).plan
    policy = FaultPolicy(
        retry=RetryPolicy(max_retries=2, default_budget=budget),
        degradation=degradation,
    )
    executor = FaultTolerantExecutor(
        _SCHEMA, policy, query=_QUERY, distribution=distribution
    )
    faults = _PROFILES[profile]
    schedule = FaultSchedule({0: _PROFILES["stuck"], 1: faults, 2: faults})
    return executor, plan, schedule, rows


class TestCutWindowState:
    @pytest.mark.parametrize("profile", sorted(_PROFILES))
    @pytest.mark.parametrize(
        "degradation",
        [DegradationMode.ABSTAIN, DegradationMode.SKIP, DegradationMode.IMPUTE],
    )
    def test_random_cuts_equal_a_rerun(self, profile, degradation):
        executor, plan, schedule, rows = _window_case(profile, degradation, None)
        rng = np.random.default_rng(len(profile))
        # A first window leaves bursts owed and values delivered.
        first = executor.run(plan, rows[300:420], schedule, np.random.default_rng(5))
        start = first.state
        window = rows[420:620]
        for read_all in (False, True):
            window_plan = _read_plan() if read_all else plan
            out = executor.run(
                window_plan, window, state=start, first_row=120, read_all=read_all
            )
            assert _fault_state(out.state_at(out.rows)) == _fault_state(out.state)
            cuts = {0, 1, out.rows - 1, *rng.integers(0, out.rows, 12).tolist()}
            walked = [end - 1 for end, _ in out.checkpoints[1:]]
            cuts |= {row for row in walked} | {row + 1 for row in walked}
            for cut in sorted(cuts):
                rerun = executor.run(
                    window_plan, window[:cut], state=start, first_row=120,
                    read_all=read_all,
                )
                assert _fault_state(out.state_at(cut)) == _fault_state(rerun.state), cut
                for name in ("costs", "verdicts", "abstains", "observed", "failed"):
                    prefix = getattr(out, name)[:cut]
                    assert prefix.tobytes() == getattr(rerun, name).tobytes(), name
            assert _fault_state(start) == _fault_state(first.state)

    def test_budgets_carry_through_a_cut(self):
        executor, plan, schedule, rows = _window_case(
            "outage", DegradationMode.SKIP, budget=3
        )
        start = FaultState.fresh(schedule, np.random.default_rng(8))
        out = executor.run(plan, rows[:200], state=start)
        assert out.state.budget_spent
        for cut in range(0, 200, 7):
            rerun = executor.run(plan, rows[:cut], state=start)
            assert _fault_state(out.state_at(cut)) == _fault_state(rerun.state)

    def test_start_state_is_untouched(self):
        executor, plan, schedule, rows = _window_case(
            "mixed", DegradationMode.ABSTAIN, None
        )
        start = FaultState.fresh(schedule, np.random.default_rng(1))
        before = _fault_state(start)
        out = executor.run(plan, rows[:150], state=start)
        assert out.checkpoints[0][1] is start
        assert _fault_state(start) == before


def _read_plan() -> SequentialNode:
    from repro.faults.executor import query_read_plan

    return query_read_plan(_QUERY)
