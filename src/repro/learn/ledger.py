"""The regret ledger: exploration accounting on the Eq. 3 ledger.

The bandit spends acquisition cost on four sides of the one
:class:`~repro.core.ledger.Ledger`: ``warmup_cost`` (the plan-less
phase before the first statistics fit), ``conditioning_cost`` (the
conditioning skeleton's routing reads, identical for every arm of a
branch, so never attributable to exploration), ``base_cost`` (pulls on
the served arm, plus the *reference share* of exploratory pulls: what
the served arm's posterior says the tuple would have cost anyway) and
``exploration_cost`` (the excess of an exploratory pull over that
reference, the side the regret budget caps).

The split is exact by construction: an exploratory pull of realized cost
``c`` against reference ``r`` charges ``max(0, c - r)`` to exploration
and the remainder to base, so the sides add up to the per-tuple costs
to float round-off for every run (:meth:`~repro.core.ledger.Ledger.
conserved`).  :meth:`RegretLedger.can_explore` is the hard gate — the
bandit asks it *before* pulling a non-served arm, passing the largest
excess the pull could possibly incur, so the budget is never overdrawn
even transiently.  The verifier's ``LRN001``/``LRN002`` rules re-check
both invariants on emitted provenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, ClassVar

from repro.core.ledger import Ledger
from repro.exceptions import LearningError

__all__ = ["RegretLedger"]


@dataclass(slots=True)
class RegretLedger(Ledger):
    """Mutable run-wide ledger shared by every branch bandit of a plan."""

    exploration_pulls: int = 0
    exploit_pulls: int = 0

    SIDES: ClassVar[tuple[str, ...]] = (
        "warmup_cost",
        "conditioning_cost",
        "base_cost",
        "exploration_cost",
    )

    def __post_init__(self) -> None:
        if not math.isfinite(self.budget) and self.budget != math.inf:
            raise LearningError(f"regret budget must be finite or inf: {self.budget}")
        if self.budget < 0.0:
            raise LearningError(f"regret budget must be non-negative: {self.budget}")
        self.budget = float(self.budget)

    def charge_warmup(self, cost: float) -> None:
        self._require_charge(cost)
        self.warmup_cost += cost

    def charge_conditioning(self, cost: float) -> None:
        self._require_charge(cost)
        self.conditioning_cost += cost

    def charge_exploit(self, cost: float) -> None:
        """A pull on the served arm: pure base-side spend."""
        self._require_charge(cost)
        self.base_cost += cost
        self.exploit_pulls += 1

    def charge_exploits(self, costs: list[float]) -> None:
        """A run of served pulls: :meth:`charge_exploit` per cost, in order.

        The base side adds them left to right, so its float is the
        per-pull one; nothing is booked when a cost is bad.
        """
        base = self.base_cost
        for cost in costs:
            base += cost
        # A NaN or infinite cost makes the sum non-finite.
        if not math.isfinite(base) or min(costs, default=0.0) < 0.0:
            for cost in costs:
                self._require_charge(cost)
        self.base_cost = base
        self.exploit_pulls += len(costs)

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
        self.base_cost += cost - excess
        self.exploration_cost += excess
        self.exploration_pulls += 1

    def can_explore(self, max_excess: float) -> bool:
        """May a pull that could cost up to ``max_excess`` excess proceed?"""
        return self.exploration_cost + max_excess <= self.budget

    def snapshot(self) -> "RegretLedger":
        """A detached copy, for reports and provenance."""
        return replace(self)

    def as_dict(self) -> dict[str, Any]:
        return {
            **Ledger.as_dict(self),
            "exploration_pulls": self.exploration_pulls,
            "exploit_pulls": self.exploit_pulls,
        }

    @staticmethod
    def _require_charge(cost: float) -> None:
        if not math.isfinite(cost) or cost < 0.0:
            raise LearningError(f"ledger charges must be finite and >= 0: {cost}")
