"""Property tests for the learning loop's ledger discipline.

Two invariants the ISSUE's acceptance criteria hinge on, checked over
randomized streams rather than hand-picked ones:

1. **Budget**: the exploration side of the ledger never exceeds the
   regret budget — the ``can_explore`` gate is a *hard* cap, under
   stationary streams, drift storms, and fault storms alike.
2. **Conservation**: warmup + conditioning + base + exploration equals
   the metered stream total *exactly* (to float tolerance) — every
   charge lands on exactly one side, including retry-inflated faulted
   reads and failed exploration pulls that bought nothing.

Both re-derive the sums from the report's raw cost array; nothing is
trusted from the ledger's own helpers beyond the side totals.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ledger import Ledger
from repro.exceptions import LearningError
from repro.faults.model import AttributeFaults, FaultSchedule
from repro.learn import (
    LearnedStreamExecutor,
    RegretLedger,
    adversarial_stream,
    drifting_stream,
)
from repro.verify.learn import check_learned

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

LEDGER_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_books_balance(report):
    ledger = report.ledger
    sides = (
        ledger.warmup_cost
        + ledger.conditioning_cost
        + ledger.base_cost
        + ledger.exploration_cost
    )
    observed = float(report.costs.sum())
    assert sides == pytest.approx(observed, rel=1e-9, abs=1e-6)
    assert ledger.exploration_cost <= ledger.budget + 1e-9
    assert min(
        ledger.warmup_cost,
        ledger.conditioning_cost,
        ledger.base_cost,
        ledger.exploration_cost,
    ) >= 0.0
    # And the provenance the verifier would audit agrees.
    assert check_learned(report.plan, report.provenance) == []


class TestStreamInvariants:
    @SETTINGS
    @given(
        seed=st.integers(0, 2**16),
        segments=st.integers(1, 4),
        budget_pulls=st.sampled_from([0.0, 0.5, 2.0, 8.0]),
    )
    def test_drift_storm_conserves_and_respects_budget(
        self, seed, segments, budget_pulls
    ):
        workload = adversarial_stream(
            n_segments=segments, segment_length=120, seed=seed
        )
        budget = budget_pulls * 201.0  # worst-case full read of 1+100+100
        report = LearnedStreamExecutor(
            workload.schema,
            workload.query,
            regret_budget=budget,
            window=96,
            warmup=32,
            smoothing=0.5,
            delta=0.2,
            burst_pulls=4,
            drift_check_every=16,
            drift_min_tuples=32,
        ).process(workload.data)
        assert_books_balance(report)

    @SETTINGS
    @given(
        seed=st.integers(0, 2**16),
        drop=st.floats(0.0, 0.3),
        noise=st.floats(0.0, 0.2),
        stuck=st.floats(0.0, 0.2),
    )
    def test_fault_storm_conserves_and_respects_budget(
        self, seed, drop, noise, stuck
    ):
        workload = drifting_stream(n_tuples=260, flip_at=0.5, seed=seed)
        schedule = FaultSchedule(
            profiles={
                1: AttributeFaults(drop_rate=drop, noise_rate=noise),
                2: AttributeFaults(stuck_rate=stuck),
            }
        )
        report = LearnedStreamExecutor(
            workload.schema,
            workload.query,
            window=96,
            warmup=32,
            smoothing=0.5,
            delta=0.2,
            burst_pulls=4,
            fault_schedule=schedule,
            fault_rng=np.random.default_rng(seed),
        ).process(workload.data)
        assert_books_balance(report)

    @SETTINGS
    @given(seed=st.integers(0, 2**16))
    def test_zero_budget_never_explores(self, seed):
        workload = adversarial_stream(
            n_segments=2, segment_length=120, seed=seed
        )
        report = LearnedStreamExecutor(
            workload.schema,
            workload.query,
            regret_budget=0.0,
            window=96,
            warmup=32,
            smoothing=0.5,
        ).process(workload.data)
        assert report.ledger.exploration_cost == 0.0
        assert report.ledger.exploration_pulls == 0
        assert_books_balance(report)


class TestLedgerAlgebra:
    @LEDGER_SETTINGS
    @given(
        charges=st.lists(
            st.tuples(
                st.sampled_from(["warmup", "conditioning", "exploit", "explore"]),
                st.floats(0.0, 500.0, allow_nan=False),
                st.floats(0.0, 500.0, allow_nan=False),
            ),
            max_size=40,
        ),
        budget=st.floats(0.0, 1e4, allow_nan=False),
    )
    def test_sides_always_reconcile(self, charges, budget):
        ledger = RegretLedger(budget)
        total = 0.0
        for kind, cost, reference in charges:
            if kind == "warmup":
                ledger.charge_warmup(cost)
            elif kind == "conditioning":
                ledger.charge_conditioning(cost)
            elif kind == "exploit":
                ledger.charge_exploit(cost)
            else:
                if not ledger.can_explore(max(0.0, cost - reference)):
                    continue
                ledger.charge_explore(cost, reference)
            total += cost
        snap = ledger.snapshot()
        assert isinstance(snap, Ledger)
        assert snap.total_cost == pytest.approx(total, rel=1e-9, abs=1e-9)
        assert snap.total_cost == sum(getattr(snap, side) for side in snap.SIDES)
        assert snap.conserved(total)
        assert snap.exploration_cost <= budget + 1e-9

    @LEDGER_SETTINGS
    @given(
        budget=st.floats(0.0, 100.0, allow_nan=False),
        spend=st.floats(0.0, 100.0, allow_nan=False),
    )
    def test_can_explore_is_consistent_with_remaining(self, budget, spend):
        ledger = RegretLedger(budget)
        assert ledger.can_explore(spend) == (spend <= ledger.budget_remaining)

    def test_charges_reject_garbage(self):
        ledger = RegretLedger(10.0)
        for bad in (float("nan"), float("-inf"), -0.5):
            with pytest.raises(LearningError):
                ledger.charge_exploit(bad)
