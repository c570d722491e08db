"""The Eq. 3 ledger: one split of acquisition cost, one conservation check.

Every cost the system books is the Eq. 3 acquisition cost of some read,
and every joule lands on exactly one named side, by why it was spent:

- ``warmup_cost`` — the learned stream's plan-less warm-up reads;
- ``conditioning_cost`` — reads the learned stream's conditioning
  skeleton charges while routing a tuple to its branch;
- ``base_cost`` — the plan's own reads: a fault-tolerant run's first
  attempts, a bandit's served pulls and the reference share of its
  exploratory ones;
- ``exploration_cost`` — the excess of an exploratory pull over its
  reference, the side a regret ``budget`` caps;
- ``retry_cost`` — a fault-tolerant run's retried reads;
- ``shed_cost`` — what the requests admission control shed would have
  spent.

:meth:`Ledger.conserved` is the one conservation check: the sides add
up to the metered total within a tolerance relative to that total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, ClassVar

__all__ = ["Ledger"]


@dataclass(slots=True)
class Ledger:
    """Named Eq. 3 cost sides, their total and its conservation check."""

    budget: float = math.inf
    warmup_cost: float = 0.0
    conditioning_cost: float = 0.0
    base_cost: float = 0.0
    exploration_cost: float = 0.0
    retry_cost: float = 0.0
    shed_cost: float = 0.0

    #: The sides this ledger books, in the order :attr:`total_cost` adds them.
    SIDES: ClassVar[tuple[str, ...]] = (
        "warmup_cost",
        "conditioning_cost",
        "base_cost",
        "exploration_cost",
        "retry_cost",
        "shed_cost",
    )

    @property
    def total_cost(self) -> float:
        total: float = sum(getattr(self, side) for side in self.SIDES)
        return total

    @property
    def budget_remaining(self) -> float:
        return max(0.0, self.budget - self.exploration_cost)

    def gap(self, observed: float) -> float:
        """Absolute mismatch between the sides and a metered total."""
        return abs(self.total_cost - observed)

    def conserved(self, observed: float, tolerance: float = 1e-6) -> bool:
        """Do the sides add up to ``observed``, relative to its magnitude?"""
        return self.gap(observed) <= tolerance * max(1.0, abs(observed))

    def charge_shed(self, expected_cost: float, rows: int) -> float:
        """Book a shed request's avoided cost, ``expected_cost * rows``.

        Returns the charge booked (0.0 for an empty or cost-less
        request), so a caller can mirror it exactly elsewhere.
        """
        if expected_cost > 0.0 and rows > 0:
            charge = expected_cost * rows
            self.shed_cost += charge
            return charge
        return 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "budget": self.budget,
            **{side: round(getattr(self, side), 6) for side in self.SIDES},
        }
