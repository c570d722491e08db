"""Plan execution with acquisition-cost accounting.

The executor is the runtime half of the architecture (Section 2.5): plans
arrive pre-computed from the basestation and are evaluated per tuple with a
simple tree traversal — cheap enough for mote-class hardware.  This module
provides both a per-tuple executor over :class:`AcquisitionSource` objects
(arbitrary cost models) and dataset-scale helpers built on the vectorized
walker in :mod:`repro.core.cost`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.attributes import Schema
from repro.core.cost import DatasetExecution, ExecutionObserver, dataset_execution
from repro.core.plan import PlanNode
from repro.core.query import ConjunctiveQuery
from repro.execution.acquisition import AcquisitionSource, TupleSource
from repro.exceptions import PlanError

__all__ = ["ExecutionResult", "VerificationReport", "PlanExecutor"]


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of executing a plan on one tuple."""

    verdict: bool
    cost: float
    acquired: frozenset[int]

    @property
    def reads(self) -> int:
        return len(self.acquired)


@dataclass(frozen=True)
class VerificationReport:
    """Comparison of a plan's verdicts against ground-truth evaluation.

    The paper's correctness guarantee (Section 8) is that conditional plans
    never change query answers — only acquisition order.  ``mismatches``
    must therefore always be empty; it is reported rather than asserted so
    tests can show *which* rows diverged when a planner is broken.
    """

    rows: int
    mismatches: tuple[int, ...]

    @property
    def correct(self) -> bool:
        return not self.mismatches


class PlanExecutor:
    """Executes plans against tuples, sources, and datasets.

    ``profile_sink`` (usually a :class:`repro.obs.PlanProfile`) receives
    per-node visit/branch/acquisition events from every execution this
    executor performs, all produced by the vectorized walker
    (:func:`~repro.core.cost.dataset_execution`); when ``None`` (the
    default) no bookkeeping happens.
    Meaningful per-node counters assume the executor runs one plan — use
    one sink per plan, or a fresh executor per plan.
    """

    def __init__(
        self, schema: Schema, profile_sink: ExecutionObserver | None = None
    ) -> None:
        self._schema = schema
        self._profile_sink = profile_sink

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def profile_sink(self) -> ExecutionObserver | None:
        return self._profile_sink

    def execute(self, plan: PlanNode, values) -> ExecutionResult:
        """Run a plan on one concrete tuple with schema costs."""
        source = TupleSource(self._schema, values)
        return self.execute_source(plan, source)

    def execute_source(
        self, plan: PlanNode, source: AcquisitionSource
    ) -> ExecutionResult:
        """Run a plan against an acquisition source (custom cost models).

        The plan's reads are routed through :meth:`AcquisitionSource.acquire`
        so the source's cost model — including board power-up surcharges —
        is what gets metered, not the schema's flat costs.
        """
        if source.schema is not self._schema:
            raise PlanError("source schema differs from executor schema")
        verdict = plan.evaluate(_SourceView(source))
        if self._profile_sink is not None:
            # The walker replays the tuple from the values the plan read
            # (cached by the source, so not charged again): the sink sees
            # the events of a one-row dataset run.
            row = np.zeros((1, len(self._schema)), dtype=np.int64)
            for index in source.acquired_indices:
                row[0, index] = source.acquire(index)
            dataset_execution(plan, row, self._schema, observer=self._profile_sink)
        return ExecutionResult(
            verdict=verdict,
            cost=source.total_cost,
            acquired=frozenset(source.acquired_indices),
        )

    def run(self, plan: PlanNode, data: np.ndarray) -> DatasetExecution:
        """Vectorized execution over every row of a dataset (Equation 4)."""
        return dataset_execution(
            plan, data, self._schema, observer=self._profile_sink
        )

    def verify(
        self, plan: PlanNode, query: ConjunctiveQuery, data: np.ndarray
    ) -> VerificationReport:
        """Check that the plan answers ``query`` identically on every row."""
        outcome = self.run(plan, data)
        truth = np.fromiter(
            (query.evaluate(row) for row in np.asarray(data)),
            dtype=bool,
            count=len(data),
        )
        mismatches = tuple(int(i) for i in np.flatnonzero(outcome.verdicts != truth))
        return VerificationReport(rows=len(data), mismatches=mismatches)


class _SourceView:
    """Adapts an AcquisitionSource to the sequence protocol plans index."""

    __slots__ = ("_source",)

    def __init__(self, source: AcquisitionSource) -> None:
        self._source = source

    def __getitem__(self, index: int) -> int:
        return self._source.acquire(index)
