"""The regret ledger: two-sided Eq. 3 accounting for exploration.

The bandit spends acquisition cost in four places and every joule must
land on exactly one side, mirroring the base+retry split of the fault
injector's ledger (PR 5):

- ``warmup_cost`` — the plan-less acquire-everything phase before the
  first statistics fit;
- ``conditioning_cost`` — attribute reads charged by the conditioning
  skeleton while routing a tuple to its branch (identical for every arm
  of that branch, so never attributable to exploration);
- ``base_cost`` — the exploitation side: the full cost of pulls on the
  served arm, plus the *reference share* of exploratory pulls (what the
  served arm's posterior says the tuple would have cost anyway);
- ``exploration_cost`` — the excess of an exploratory pull over that
  reference.  This is the side the regret budget caps.

The split is exact by construction: an exploratory pull of realized cost
``c`` against reference ``r`` charges ``max(0, c - r)`` to exploration
and the remainder to base, so

    warmup + conditioning + base + exploration == sum(per-tuple costs)

holds to float round-off for every run.  :meth:`can_explore` is the hard
gate — the bandit asks it *before* pulling a non-served arm, passing the
largest excess the pull could possibly incur, so the budget is never
overdrawn even transiently.  The verifier's ``LRN001``/``LRN002`` rules
re-check both invariants on emitted provenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.exceptions import LearningError

__all__ = ["LedgerSnapshot", "RegretLedger"]


@dataclass(frozen=True)
class LedgerSnapshot:
    """Immutable copy of a :class:`RegretLedger` for reports/provenance."""

    budget: float
    warmup_cost: float
    conditioning_cost: float
    base_cost: float
    exploration_cost: float
    exploration_pulls: int
    exploit_pulls: int

    @property
    def total_cost(self) -> float:
        return (
            self.warmup_cost
            + self.conditioning_cost
            + self.base_cost
            + self.exploration_cost
        )

    @property
    def budget_remaining(self) -> float:
        return max(0.0, self.budget - self.exploration_cost)

    def gap(self, observed_total: float) -> float:
        """Absolute mismatch between the ledger and a measured total."""
        return abs(self.total_cost - observed_total)

    def conserved(self, observed_total: float, tolerance: float = 1e-6) -> bool:
        """Do the ledger sides reconcile with a measured total cost?"""
        scale = max(1.0, abs(observed_total))
        return self.gap(observed_total) <= tolerance * scale

    def as_dict(self) -> dict[str, Any]:
        return {
            "budget": self.budget,
            "warmup_cost": round(self.warmup_cost, 6),
            "conditioning_cost": round(self.conditioning_cost, 6),
            "base_cost": round(self.base_cost, 6),
            "exploration_cost": round(self.exploration_cost, 6),
            "exploration_pulls": self.exploration_pulls,
            "exploit_pulls": self.exploit_pulls,
        }


class RegretLedger:
    """Mutable run-wide ledger shared by every branch bandit of a plan."""

    def __init__(self, budget: float) -> None:
        if not math.isfinite(budget) and budget != math.inf:
            raise LearningError(f"regret budget must be finite or inf: {budget}")
        if budget < 0.0:
            raise LearningError(f"regret budget must be non-negative: {budget}")
        self._budget = float(budget)
        self._warmup = 0.0
        self._conditioning = 0.0
        self._base = 0.0
        self._exploration = 0.0
        self._exploration_pulls = 0
        self._exploit_pulls = 0

    @property
    def budget(self) -> float:
        return self._budget

    @property
    def warmup_cost(self) -> float:
        return self._warmup

    @property
    def conditioning_cost(self) -> float:
        return self._conditioning

    @property
    def base_cost(self) -> float:
        return self._base

    @property
    def exploration_cost(self) -> float:
        return self._exploration

    @property
    def exploration_pulls(self) -> int:
        return self._exploration_pulls

    @property
    def exploit_pulls(self) -> int:
        return self._exploit_pulls

    @property
    def budget_remaining(self) -> float:
        return max(0.0, self._budget - self._exploration)

    @property
    def total_cost(self) -> float:
        return self._warmup + self._conditioning + self._base + self._exploration

    def charge_warmup(self, cost: float) -> None:
        self._require_charge(cost)
        self._warmup += cost

    def charge_conditioning(self, cost: float) -> None:
        self._require_charge(cost)
        self._conditioning += cost

    def charge_exploit(self, cost: float) -> None:
        """A pull on the served arm: pure base-side spend."""
        self._require_charge(cost)
        self._base += cost
        self._exploit_pulls += 1

    def charge_exploits(self, costs: list[float]) -> None:
        """A run of served pulls: :meth:`charge_exploit` per cost, in order.

        The base side adds them left to right, so its float is the
        per-pull one; nothing is booked when a cost is bad.
        """
        base = self._base
        for cost in costs:
            base += cost
        # A NaN or infinite cost makes the sum non-finite.
        if not math.isfinite(base) or min(costs, default=0.0) < 0.0:
            for cost in costs:
                self._require_charge(cost)
        self._base = base
        self._exploit_pulls += len(costs)

    def charge_explore(self, cost: float, reference: float) -> None:
        """A pull on a non-served arm, split against the served reference.

        ``reference`` is what the served arm's posterior predicts the
        tuple would have cost; only the excess is exploration spend.  A
        pull cheaper than the reference charges zero exploration — the
        gamble paid off — so exploration_cost is exactly the realized
        regret against the incumbent, never a rebate.
        """
        self._require_charge(cost)
        if reference < 0.0:
            raise LearningError(f"negative exploration reference: {reference}")
        excess = max(0.0, cost - reference)
        self._base += cost - excess
        self._exploration += excess
        self._exploration_pulls += 1

    def can_explore(self, max_excess: float) -> bool:
        """May a pull that could cost up to ``max_excess`` excess proceed?"""
        return self._exploration + max_excess <= self._budget

    def snapshot(self) -> LedgerSnapshot:
        return LedgerSnapshot(
            budget=self._budget,
            warmup_cost=self._warmup,
            conditioning_cost=self._conditioning,
            base_cost=self._base,
            exploration_cost=self._exploration,
            exploration_pulls=self._exploration_pulls,
            exploit_pulls=self._exploit_pulls,
        )

    @staticmethod
    def _require_charge(cost: float) -> None:
        if not math.isfinite(cost) or cost < 0.0:
            raise LearningError(f"ledger charges must be finite and >= 0: {cost}")
