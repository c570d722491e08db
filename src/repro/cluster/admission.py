"""Admission control: degrade under overload instead of collapsing.

The controller reuses the PR 5 fault-policy degradation vocabulary
(:class:`~repro.faults.DegradationMode`) as its load-shedding policy —
overload is treated as one more acquisition fault, handled by the same
sound degrade-don't-lie contract:

- ``ABSTAIN`` — between the soft and hard in-flight limits every
  non-coalescible request is refused outright (the client gets an
  explicit shed, never a wrong or partial answer);
- ``SKIP`` — the expensive work is skipped, not the request: requests
  whose fingerprint is already *warm* (planned and cached on their
  shard, so serving them costs no planning) are still admitted between
  the limits, only *cold* fingerprints — the ones that would trigger
  fresh planning under pressure — are shed;
- above the hard limit everything non-coalescible sheds regardless of
  mode (``IMPUTE`` has no overload analogue and maps to ``SKIP``).

Joining an existing in-flight execution is always admitted: a coalesced
request adds one future and zero shard work, so shedding it would save
nothing.  Every shed is booked on the ``shed_cost`` side of an Eq. 3
:class:`~repro.core.ledger.Ledger` at the request's last-known expected
WHERE cost — the energy the cluster *declined to spend* — so capacity
planning can compare shed cost against served cost in the same currency
the planner optimizes.  The snapshot reports that side unrounded, so
the obs-report reconciliation compares like with like.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ledger import Ledger
from repro.exceptions import ClusterError
from repro.faults.policy import DegradationMode

__all__ = ["AdmissionController", "AdmissionDecision"]


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's verdict for one arriving request."""

    admitted: bool
    reason: str = ""  # "", "overload", "queue-depth", "cold"


class AdmissionController:
    """Two-level in-flight limiter with degradation-mode shedding."""

    def __init__(
        self,
        soft_limit: int = 256,
        hard_limit: int = 1024,
        max_shard_depth: int | None = None,
        shed_mode: DegradationMode = DegradationMode.ABSTAIN,
    ) -> None:
        if soft_limit < 1:
            raise ClusterError(f"soft_limit must be >= 1, got {soft_limit}")
        if hard_limit < soft_limit:
            raise ClusterError(
                f"hard_limit ({hard_limit}) must be >= soft_limit "
                f"({soft_limit})"
            )
        if max_shard_depth is not None and max_shard_depth < 1:
            raise ClusterError(
                f"max_shard_depth must be >= 1, got {max_shard_depth}"
            )
        self.soft_limit = int(soft_limit)
        self.hard_limit = int(hard_limit)
        self.max_shard_depth = max_shard_depth
        self.shed_mode = shed_mode
        self.requests_shed = 0
        self.ledger = Ledger()

    def decide(
        self,
        inflight: int,
        shard_depth: int,
        warm: bool,
        joinable: bool,
    ) -> AdmissionDecision:
        """Admit, or shed with a reason.

        ``inflight`` counts cluster-wide waiters, ``shard_depth`` counts
        executions pending on the routed shard, ``warm`` says the
        fingerprint has a live cached plan on that shard, ``joinable``
        says an identical execution is already in flight.
        """
        if joinable:
            return AdmissionDecision(True)
        if inflight >= self.hard_limit:
            return AdmissionDecision(False, "overload")
        if (
            self.max_shard_depth is not None
            and shard_depth >= self.max_shard_depth
        ):
            return AdmissionDecision(False, "queue-depth")
        if inflight >= self.soft_limit:
            if self.shed_mode is DegradationMode.ABSTAIN:
                return AdmissionDecision(False, "overload")
            # SKIP (and IMPUTE, which has no overload analogue): skip the
            # *planning* work — warm shapes still flow, cold ones shed.
            if not warm:
                return AdmissionDecision(False, "cold")
        return AdmissionDecision(True)

    def charge_shed(self, expected_where_cost: float, rows: int) -> float:
        """Account a shed request's avoided Eq. 3 acquisition cost.

        Returns the cost actually added to the ledger so callers can
        mirror the exact charge elsewhere (trace events carry it as
        ``cost_avoided``, which the obs-report reconciliation checks
        against this ledger).
        """
        self.requests_shed += 1
        return self.ledger.charge_shed(expected_where_cost, rows)

    def snapshot(self) -> dict:
        return {
            "soft_limit": self.soft_limit,
            "hard_limit": self.hard_limit,
            "max_shard_depth": self.max_shard_depth,
            "shed_mode": self.shed_mode.value,
            "requests_shed": self.requests_shed,
            "shed_cost_avoided": self.ledger.shed_cost,
        }
