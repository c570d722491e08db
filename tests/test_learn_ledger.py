"""Unit tests for the Eq. 3 ledger (repro.core.ledger) and the regret
ledger built on it (repro.learn.ledger)."""

import math

import pytest

from repro.core.ledger import Ledger
from repro.exceptions import LearningError
from repro.learn import RegretLedger


class TestLedger:
    def test_total_adds_every_side(self):
        ledger = Ledger(
            warmup_cost=1.0,
            conditioning_cost=2.0,
            base_cost=4.0,
            exploration_cost=8.0,
            retry_cost=16.0,
            shed_cost=32.0,
        )
        assert ledger.total_cost == 63.0
        assert Ledger().total_cost == 0.0

    def test_two_sided_total_is_the_plain_sum(self):
        # Zero sides add nothing, so the fault ledger's total is exactly
        # base + retry, float for float.
        base, retry = 0.1, 0.2
        assert Ledger(base_cost=base, retry_cost=retry).total_cost == base + retry

    def test_conserved_is_relative_to_the_observed_total(self):
        ledger = Ledger(base_cost=1e9)
        assert ledger.conserved(1e9 * (1 + 1e-9))
        assert not ledger.conserved(1e9 * (1 + 1e-9), tolerance=1e-12)
        # Below 1 the tolerance is absolute.
        small = Ledger(base_cost=0.0)
        assert small.conserved(5e-7)
        assert not small.conserved(2e-6)
        assert small.gap(2e-6) == 2e-6

    def test_budget_remaining_defaults_to_unbounded(self):
        assert Ledger().budget_remaining == math.inf
        assert Ledger(budget=3.0, exploration_cost=1.0).budget_remaining == 2.0

    def test_charge_shed_books_the_shed_side(self):
        ledger = Ledger()
        assert ledger.charge_shed(2.5, 4) == 10.0
        assert ledger.charge_shed(0.0, 4) == 0.0
        assert ledger.charge_shed(2.5, 0) == 0.0
        assert ledger.shed_cost == 10.0
        assert ledger.total_cost == 10.0

    def test_as_dict_lists_budget_then_sides(self):
        payload = Ledger(retry_cost=0.1234567).as_dict()
        assert list(payload) == ["budget", *Ledger.SIDES]
        assert payload["retry_cost"] == 0.123457


class TestCharges:
    def test_sides_accumulate_independently(self):
        ledger = RegretLedger(100.0)
        ledger.charge_warmup(10.0)
        ledger.charge_conditioning(2.0)
        ledger.charge_exploit(30.0)
        ledger.charge_explore(50.0, 45.0)
        assert ledger.warmup_cost == 10.0
        assert ledger.conditioning_cost == 2.0
        assert ledger.base_cost == 30.0 + 45.0
        assert ledger.exploration_cost == 5.0
        assert ledger.exploit_pulls == 1
        assert ledger.exploration_pulls == 1

    def test_total_is_the_sum_of_sides(self):
        ledger = RegretLedger(100.0)
        ledger.charge_warmup(7.0)
        ledger.charge_exploit(11.0)
        ledger.charge_explore(13.0, 4.0)
        assert ledger.total_cost == pytest.approx(7.0 + 11.0 + 13.0)

    def test_explore_split_is_exact(self):
        """charge_explore books cost - excess to base, excess to explore."""
        ledger = RegretLedger(100.0)
        ledger.charge_explore(120.0, 100.0)
        assert ledger.base_cost == pytest.approx(100.0)
        assert ledger.exploration_cost == pytest.approx(20.0)
        assert ledger.total_cost == pytest.approx(120.0)

    def test_cheaper_than_reference_charges_zero_exploration(self):
        ledger = RegretLedger(100.0)
        ledger.charge_explore(80.0, 100.0)
        assert ledger.exploration_cost == 0.0
        assert ledger.base_cost == pytest.approx(80.0)

    def test_negative_and_nonfinite_charges_rejected(self):
        ledger = RegretLedger(100.0)
        with pytest.raises(LearningError):
            ledger.charge_exploit(-1.0)
        with pytest.raises(LearningError):
            ledger.charge_warmup(math.nan)
        with pytest.raises(LearningError):
            ledger.charge_explore(math.inf, 0.0)
        with pytest.raises(LearningError):
            ledger.charge_explore(1.0, -0.5)


class TestBudgetGate:
    def test_can_explore_is_a_hard_gate(self):
        ledger = RegretLedger(10.0)
        assert ledger.can_explore(10.0)
        ledger.charge_explore(8.0, 0.0)
        assert ledger.can_explore(2.0)
        assert not ledger.can_explore(2.0001)

    def test_budget_remaining_clamps_at_zero(self):
        ledger = RegretLedger(5.0)
        ledger.charge_explore(9.0, 0.0)  # the gate is the caller's job
        assert ledger.budget_remaining == 0.0

    def test_invalid_budget_rejected(self):
        with pytest.raises(LearningError):
            RegretLedger(-1.0)
        with pytest.raises(LearningError):
            RegretLedger(math.nan)

    def test_infinite_budget_allowed(self):
        ledger = RegretLedger(math.inf)
        assert ledger.can_explore(1e18)


class TestSnapshot:
    def test_snapshot_is_frozen_copy(self):
        ledger = RegretLedger(50.0)
        ledger.charge_exploit(5.0)
        snap = ledger.snapshot()
        ledger.charge_exploit(5.0)
        assert isinstance(snap, Ledger)
        assert snap.base_cost == 5.0
        assert ledger.base_cost == 10.0

    def test_conserved_against_observed_total(self):
        ledger = RegretLedger(50.0)
        ledger.charge_warmup(3.0)
        ledger.charge_exploit(4.0)
        ledger.charge_explore(6.0, 2.0)
        snap = ledger.snapshot()
        assert snap.conserved(13.0)
        assert not snap.conserved(14.0)
        assert snap.gap(13.0) == pytest.approx(0.0)

    def test_as_dict_round_trips_fields(self):
        ledger = RegretLedger(50.0)
        ledger.charge_exploit(4.0)
        payload = ledger.snapshot().as_dict()
        assert list(payload) == [
            "budget",
            *RegretLedger.SIDES,
            "exploration_pulls",
            "exploit_pulls",
        ]
        assert payload["budget"] == 50.0
        assert payload["base_cost"] == 4.0
        assert payload["exploit_pulls"] == 1
