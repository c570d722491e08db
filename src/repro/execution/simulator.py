"""A discrete-epoch sensor-network simulator (Sections 2.4, 2.5, 7).

The paper's architecture generates conditional plans at a well-provisioned
basestation and ships them to motes, which execute the plan locally each
epoch and radio matching tuples back.  The paper costs plans on a
centralized PC ("we reserve implementing a plan executor that runs on
sensor network hardware for future work"); this simulator goes one step
further and provides the energy bookkeeping that makes the Section 2.4
trade-off concrete:

- **acquisition energy**: each mote pays the plan's traversal cost per
  epoch (Equation 1);
- **dissemination energy**: sending a plan of ``zeta(P)`` bytes into the
  network costs ``zeta(P) * radio_cost_per_byte`` per mote, amortized over
  the query lifetime — exactly the ``alpha`` factor of Section 2.4;
- **result energy**: each matching tuple costs ``result_bytes *
  radio_cost_per_byte`` to report.

The simulator also executes the Section 7 *existential* queries: the
basestation polls motes in descending historical match probability and
stops at the first hit, so strong cross-mote correlation translates into
fewer acquisitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.attributes import Schema
from repro.core.cost import dataset_execution
from repro.core.plan import PlanNode
from repro.core.query import ConjunctiveQuery, ExistentialQuery, LimitQuery
from repro.exceptions import AcquisitionError

if TYPE_CHECKING:
    from repro.faults.model import FaultSchedule
    from repro.faults.policy import FaultPolicy

__all__ = [
    "Mote",
    "SimulationReport",
    "LifetimeReport",
    "SensorNetworkSimulator",
]


@dataclass(frozen=True)
class Mote:
    """One sensor node: an id and its stream of per-epoch readings."""

    mote_id: int
    readings: np.ndarray  # shape (epochs, n_attributes), discretized

    def __post_init__(self) -> None:
        matrix = np.asarray(self.readings)
        if matrix.ndim != 2:
            raise AcquisitionError(
                f"mote {self.mote_id}: readings must be 2-D, got {matrix.shape}"
            )

    @property
    def epochs(self) -> int:
        return self.readings.shape[0]


@dataclass
class SimulationReport:
    """Energy accounting for one simulated query deployment.

    The fault fields stay zero for fault-free runs; for
    :meth:`SensorNetworkSimulator.run_faulted` deployments they aggregate
    the per-mote fault counters, and ``retry_energy`` is the slice of
    acquisition energy spent on backed-off re-attempts.
    """

    epochs: int
    acquisition_energy: dict[int, float] = field(default_factory=dict)
    dissemination_energy: dict[int, float] = field(default_factory=dict)
    result_energy: dict[int, float] = field(default_factory=dict)
    matches: int = 0
    acquisitions_performed: int = 0
    acquisitions_failed: int = 0
    retries_total: int = 0
    tuples_degraded: int = 0
    tuples_abstained: int = 0
    retry_energy: float = 0.0

    def mote_energy(self, mote_id: int) -> float:
        return (
            self.acquisition_energy.get(mote_id, 0.0)
            + self.dissemination_energy.get(mote_id, 0.0)
            + self.result_energy.get(mote_id, 0.0)
        )

    @property
    def total_energy(self) -> float:
        mote_ids = (
            set(self.acquisition_energy)
            | set(self.dissemination_energy)
            | set(self.result_energy)
        )
        return sum(self.mote_energy(mote_id) for mote_id in mote_ids)

    @property
    def energy_per_epoch(self) -> float:
        if self.epochs == 0:
            return 0.0
        return self.total_energy / self.epochs


@dataclass(frozen=True)
class LifetimeReport:
    """Battery-lifetime projection for one plan deployment.

    The headline sensor-network metric: a network is useful until its
    first mote dies (coverage breaks), so ``network_lifetime_epochs`` is
    the minimum over motes of (battery after dissemination) / (mean energy
    per epoch).
    """

    battery_capacity: float
    per_mote_epochs: dict[int, float]
    mean_epoch_energy: dict[int, float]

    @property
    def network_lifetime_epochs(self) -> float:
        return min(self.per_mote_epochs.values())

    @property
    def bottleneck_mote(self) -> int:
        return min(self.per_mote_epochs, key=self.per_mote_epochs.get)


class SensorNetworkSimulator:
    """Runs plans over a fleet of motes with radio-cost accounting.

    Parameters
    ----------
    schema:
        Shared per-mote schema (each mote evaluates the plan on its own
        readings).
    motes:
        The fleet.  All motes must share an epoch count.
    radio_cost_per_byte:
        Energy per transmitted byte (dissemination and results).
    result_bytes:
        Size of one reported result tuple.
    """

    def __init__(
        self,
        schema: Schema,
        motes: list[Mote],
        radio_cost_per_byte: float = 0.5,
        result_bytes: int = 8,
    ) -> None:
        if not motes:
            raise AcquisitionError("simulator needs at least one mote")
        epochs = motes[0].epochs
        for mote in motes:
            if mote.readings.shape != (epochs, len(schema)):
                raise AcquisitionError(
                    f"mote {mote.mote_id} readings shape {mote.readings.shape} "
                    f"inconsistent with ({epochs}, {len(schema)})"
                )
        if radio_cost_per_byte < 0 or result_bytes < 0:
            raise AcquisitionError("radio costs must be >= 0")
        self._schema = schema
        self._motes = list(motes)
        self._radio_cost_per_byte = float(radio_cost_per_byte)
        self._result_bytes = int(result_bytes)

    @property
    def motes(self) -> list[Mote]:
        return list(self._motes)

    @property
    def epochs(self) -> int:
        return self._motes[0].epochs

    def dissemination_cost(self, plan: PlanNode) -> float:
        """Per-mote energy to ship the plan into the network."""
        return plan.size_bytes() * self._radio_cost_per_byte

    def effective_alpha(self, lifetime_epochs: int) -> float:
        """Section 2.4's plan-size weight for a given query lifetime."""
        if lifetime_epochs < 1:
            raise AcquisitionError(
                f"lifetime_epochs must be >= 1, got {lifetime_epochs}"
            )
        return self._radio_cost_per_byte / lifetime_epochs

    def run(self, plan: PlanNode, epochs: int | None = None) -> SimulationReport:
        """Deploy ``plan`` on every mote for ``epochs`` epochs.

        Each mote executes the plan on each of its readings; energy is the
        sum of acquisition costs, one plan dissemination, and per-match
        result transmissions.
        """
        horizon = self.epochs if epochs is None else min(int(epochs), self.epochs)
        report = SimulationReport(epochs=horizon)
        dissemination = self.dissemination_cost(plan)
        result_cost = self._result_bytes * self._radio_cost_per_byte
        for mote in self._motes:
            window = mote.readings[:horizon]
            outcome = dataset_execution(plan, window, self._schema)
            matches = int(outcome.verdicts.sum())
            report.acquisition_energy[mote.mote_id] = outcome.total_cost
            report.dissemination_energy[mote.mote_id] = dissemination
            report.result_energy[mote.mote_id] = matches * result_cost
            report.matches += matches
            report.acquisitions_performed += horizon
        return report

    def run_faulted(
        self,
        plan: PlanNode,
        schedule: "FaultSchedule",
        rng: np.random.Generator,
        query: ConjunctiveQuery | None = None,
        policy: "FaultPolicy | None" = None,
        epochs: int | None = None,
    ) -> SimulationReport:
        """Deploy ``plan`` on every mote with fault injection.

        Each mote gets its own fault stream (its sensors fail
        independently), deterministically child-seeded from the single
        ``rng`` so the whole deployment replays from one seed.  Abstained
        tuples are withdrawn — they cost acquisition energy but are never
        radioed back — and the report's fault counters aggregate the
        per-mote runs.  ``query`` is required for SKIP/IMPUTE
        degradation (the fallback path evaluates it directly).
        """
        from repro.faults.executor import FaultTolerantExecutor
        from repro.faults.policy import FaultPolicy

        effective = policy if policy is not None else FaultPolicy()
        horizon = self.epochs if epochs is None else min(int(epochs), self.epochs)
        report = SimulationReport(epochs=horizon)
        dissemination = self.dissemination_cost(plan)
        result_cost = self._result_bytes * self._radio_cost_per_byte
        executor = FaultTolerantExecutor(self._schema, effective, query=query)
        for mote in self._motes:
            window = mote.readings[:horizon]
            mote_rng = np.random.default_rng(
                int(rng.integers(0, np.iinfo(np.int64).max))
            )
            outcome = executor.run(plan, window, schedule, mote_rng)
            matches = len(outcome.selected)
            report.acquisition_energy[mote.mote_id] = float(outcome.costs.sum())
            report.dissemination_energy[mote.mote_id] = dissemination
            report.result_energy[mote.mote_id] = matches * result_cost
            report.matches += matches
            report.acquisitions_performed += horizon
            report.acquisitions_failed += outcome.acquisitions_failed
            report.retries_total += outcome.retries_total
            report.tuples_degraded += outcome.tuples_degraded
            report.tuples_abstained += outcome.tuples_abstained
            report.retry_energy += outcome.retry_cost
        return report

    def estimate_lifetime(
        self,
        plan: PlanNode,
        battery_capacity: float,
        pilot_epochs: int | None = None,
    ) -> LifetimeReport:
        """Project how long each mote's battery sustains ``plan``.

        Runs a pilot window over the motes' readings to estimate mean
        energy per epoch (acquisition plus result reporting), charges one
        plan dissemination up front, and extrapolates:

            lifetime_i = (capacity - dissemination) / mean_epoch_energy_i

        A cheaper plan therefore translates directly into a longer network
        lifetime — the claim the paper's energy argument rests on.
        """
        if battery_capacity <= 0:
            raise AcquisitionError(
                f"battery_capacity must be > 0, got {battery_capacity}"
            )
        report = self.run(plan, epochs=pilot_epochs)
        dissemination = self.dissemination_cost(plan)
        if battery_capacity <= dissemination:
            raise AcquisitionError(
                "battery cannot even afford plan dissemination "
                f"({dissemination} > {battery_capacity})"
            )
        per_mote_epochs: dict[int, float] = {}
        mean_energy: dict[int, float] = {}
        for mote in self._motes:
            acquisition = report.acquisition_energy[mote.mote_id]
            results = report.result_energy.get(mote.mote_id, 0.0)
            epoch_energy = (acquisition + results) / max(report.epochs, 1)
            mean_energy[mote.mote_id] = epoch_energy
            if epoch_energy <= 0.0:
                per_mote_epochs[mote.mote_id] = float("inf")
            else:
                per_mote_epochs[mote.mote_id] = (
                    battery_capacity - dissemination
                ) / epoch_energy
        return LifetimeReport(
            battery_capacity=battery_capacity,
            per_mote_epochs=per_mote_epochs,
            mean_epoch_energy=mean_energy,
        )

    def run_existential(
        self,
        plan: PlanNode,
        query: ExistentialQuery,
        training_match_rates: dict[int, float] | None = None,
        epochs: int | None = None,
    ) -> SimulationReport:
        """Answer an EXISTS query each epoch, stopping at the first match.

        EXISTS is LIMIT 1 (:meth:`run_limit`): motes are polled in
        descending historical match rate (supplied or estimated from the
        fleet's own readings), so in correlated deployments most epochs
        touch only the most promising mote — Section 7's
        acquisition-saving generalization.
        """
        return self.run_limit(
            plan, LimitQuery(query.inner, 1), training_match_rates, epochs
        )

    def run_limit(
        self,
        plan: PlanNode,
        query: LimitQuery,
        training_match_rates: dict[int, float] | None = None,
        epochs: int | None = None,
    ) -> SimulationReport:
        """Answer a LIMIT-k query each epoch with early termination.

        Motes are polled in descending historical match rate (supplied or
        estimated from the fleet's own readings) until ``k`` matches are
        collected (or the fleet is exhausted) — the Section 7 "LIMIT
        clause" generalization.  Per-mote verdicts and costs are computed
        up front; the polling loop only charges the motes consulted.
        """
        horizon = self.epochs if epochs is None else min(int(epochs), self.epochs)
        rates = training_match_rates or self._estimate_match_rates(query.inner)
        order = sorted(
            self._motes,
            key=lambda mote: rates.get(mote.mote_id, 0.0),
            reverse=True,
        )
        report = SimulationReport(epochs=horizon)
        dissemination = self.dissemination_cost(plan)
        result_cost = self._result_bytes * self._radio_cost_per_byte
        for mote in order:
            report.dissemination_energy[mote.mote_id] = dissemination
        executions = {
            mote.mote_id: dataset_execution(
                plan, mote.readings[:horizon], self._schema
            )
            for mote in order
        }
        for epoch in range(horizon):
            collected = 0
            for mote in order:
                outcome = executions[mote.mote_id]
                report.acquisition_energy[mote.mote_id] = (
                    report.acquisition_energy.get(mote.mote_id, 0.0)
                    + float(outcome.costs[epoch])
                )
                report.acquisitions_performed += 1
                if outcome.verdicts[epoch]:
                    collected += 1
                    report.matches += 1
                    report.result_energy[mote.mote_id] = (
                        report.result_energy.get(mote.mote_id, 0.0) + result_cost
                    )
                    if collected >= query.limit:
                        break
        return report

    def _estimate_match_rates(self, query: ConjunctiveQuery) -> dict[int, float]:
        rates = {}
        for mote in self._motes:
            verdicts = np.fromiter(
                (query.evaluate(row) for row in mote.readings),
                dtype=bool,
                count=mote.epochs,
            )
            rates[mote.mote_id] = float(verdicts.mean())
        return rates
