"""Deterministic fault injection over any acquisition backend.

:class:`FaultInjector` wraps an :class:`~repro.execution.acquisition.AcquisitionSource`
and replays a :class:`~repro.faults.model.FaultSchedule` against it:
failed attempts raise :class:`~repro.exceptions.AcquisitionFailure`
(*after* charging the attempt's energy — a timed-out listen is not
free), corrupting modes silently deliver a stuck or noisy value, and an
attached :class:`~repro.faults.policy.RetryPolicy` makes ``acquire``
fight through transient failures with exponentially backed-off,
budgeted retries whose charges land in the same cost ledger.

Determinism is a hard requirement (the chaos suite replays schedules in
CI): every die is a pure function of (run key, row id, attribute,
attempt) — :func:`~repro.faults.state.fault_dice`, the same function the
windowed executor uses — and the run key is drawn from the single
``rng`` argument the first time a non-zero profile needs a die.  There is
no module-level randomness.

Fault *state* outlives individual tuples: stuck-at-last remembers the
last delivered value across rows, burst outages span tuples, and retry
budgets deplete over the whole run; it lives in one
:class:`~repro.faults.state.FaultState`.  :meth:`rebind` and
:meth:`reset` start the next row (the next row id) while preserving that
state; they clear the per-tuple read cache and cost only.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import AcquisitionError, AcquisitionFailure
from repro.execution.acquisition import AcquisitionSource
from repro.faults.model import FaultSchedule
from repro.faults.policy import RetryPolicy
from repro.faults.state import FaultState

__all__ = ["FaultInjector"]


class FaultInjector(AcquisitionSource):
    """A fault-injecting, retrying proxy in front of a real source.

    Parameters
    ----------
    source:
        The backend actually producing values (and defining per-read
        costs — board-aware cost models meter through unchanged).
    schedule:
        What to inject, per attribute.
    rng:
        The **single** source of randomness.  Callers seed it
        (``np.random.default_rng(seed)``) and hand it in; the injector
        draws the run key from it on first need and never touches global
        numpy state.
    retry_policy:
        When given, ``acquire`` retries failed attempts up to the
        policy's bounds before letting :class:`AcquisitionFailure`
        escape; retry charges are metered separately (:attr:`retry_cost`)
        on top of the base ledger.

    The first tuple is row 0 (the dice coordinate); each :meth:`rebind`
    or :meth:`reset` moves to the next row.
    """

    def __init__(
        self,
        source: AcquisitionSource,
        schedule: FaultSchedule,
        rng: np.random.Generator,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        super().__init__(source.schema)
        self._source = source
        self._state = FaultState.fresh(schedule.validated(source.schema), rng)
        self._retry_policy = retry_policy
        self._row = 0
        # Per-tuple ledgers and attempt numbers (cleared by reset/rebind).
        self._tuple_base_cost = 0.0
        self._tuple_retry_cost = 0.0
        self._tries: dict[int, int] = {}
        self._run_base_cost = 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def source(self) -> AcquisitionSource:
        return self._source

    @property
    def schedule(self) -> FaultSchedule:
        return self._state.schedule

    @property
    def state(self) -> FaultState:
        """The run-wide fault state this injector advances."""
        return self._state

    @property
    def row(self) -> int:
        """Row id of the current tuple (the dice coordinate)."""
        return self._row

    @property
    def retry_policy(self) -> RetryPolicy | None:
        return self._retry_policy

    @property
    def base_cost(self) -> float:
        """This tuple's first-attempt charges (what a fault-free run pays)."""
        return self._tuple_base_cost

    @property
    def retry_cost(self) -> float:
        """This tuple's retry surcharges (backoff-scaled re-attempts)."""
        return self._tuple_retry_cost

    @property
    def run_base_cost(self) -> float:
        return self._run_base_cost

    @property
    def run_retry_cost(self) -> float:
        return self._state.retry_cost

    @property
    def attempts(self) -> int:
        """Read attempts over the injector's lifetime (incl. failures)."""
        return self._state.attempts

    @property
    def retries_total(self) -> int:
        return self._state.retries_total

    @property
    def acquisitions_failed(self) -> int:
        """Failed attempts over the run (each retry that fails counts)."""
        return self._state.acquisitions_failed

    @property
    def failures_by_kind(self) -> dict[str, int]:
        return dict(self._state.failures)

    @property
    def corruptions(self) -> int:
        """Silently wrong deliveries (stuck/noise that changed the value)."""
        return self._state.corrupted

    @property
    def corruptions_by_kind(self) -> dict[str, int]:
        return dict(self._state.corruptions)

    @property
    def observed(self) -> dict[int, int]:
        """The values actually delivered for the current tuple."""
        return dict(self._cache)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Next tuple on the same backend; fault state persists."""
        super().reset()
        self._source.reset()
        self._next_row()

    def rebind(self, source: AcquisitionSource) -> None:
        """Point at the next tuple's backend; fault state persists."""
        if source.schema is not self._schema:
            raise AcquisitionError(
                "rebound source schema differs from the injector's schema"
            )
        self._source = source
        super().reset()
        self._next_row()

    def _next_row(self) -> None:
        self._row += 1
        self._tries.clear()
        self._tuple_base_cost = 0.0
        self._tuple_retry_cost = 0.0

    # ------------------------------------------------------------------
    # Acquisition
    # ------------------------------------------------------------------

    def acquire(self, attribute_index: int) -> int:
        """Read one attribute through the fault model, retrying per policy."""
        if not 0 <= attribute_index < len(self._schema):
            raise AcquisitionError(
                f"attribute index {attribute_index} out of range "
                f"[0, {len(self._schema) - 1}]"
            )
        cached = self._cache.get(attribute_index)
        if cached is not None:
            return cached
        state = self._state
        retry_number = 0
        while True:
            try:
                value = self._attempt(attribute_index, retry_number)
            except AcquisitionFailure:
                if not state.may_retry(
                    attribute_index, retry_number, self._retry_policy
                ):
                    raise
                state.spend_retry(attribute_index)
                retry_number += 1
                continue
            self._cache[attribute_index] = value
            return value

    def _read(self, attribute_index: int) -> int:
        # Unused: acquire() is fully overridden, but the ABC requires it.
        return self._source.acquire(attribute_index)

    def _attempt(self, attribute_index: int, retry_number: int) -> int:
        """One read attempt: charge energy, then roll the row-keyed die."""
        # Backends meter stateful costs (board power-ups) via _cost_of;
        # charging through it keeps rich cost models exact under faults.
        charge = self._state.charge(
            self._source._cost_of(attribute_index),
            retry_number,
            self._retry_policy,
        )
        if retry_number > 0:
            self._tuple_retry_cost += charge
        else:
            self._tuple_base_cost += charge
            self._run_base_cost += charge
        self._total_cost += charge
        attempt = self._tries.get(attribute_index, 0)
        self._tries[attribute_index] = attempt + 1
        value, kind = self._state.roll(
            attribute_index,
            self._row,
            attempt,
            self._source._read(attribute_index),
            self._schema[attribute_index].domain_size,
        )
        if value is None:
            raise AcquisitionFailure(kind, attribute_index)
        return value
