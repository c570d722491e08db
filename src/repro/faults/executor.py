"""Fault-tolerant plan execution over windows of rows.

:class:`FaultTolerantExecutor` runs a conditional plan over a window of
rows under a :class:`~repro.faults.model.FaultSchedule` and keeps
producing *sound* answers when reads fail.  Each read is retried per the
:class:`~repro.faults.policy.RetryPolicy`; once retries are exhausted the
:class:`~repro.faults.policy.DegradationMode` in force decides:

- **ABSTAIN** — the tuple is withdrawn and reported; verdict ``None``.
- **SKIP** — skip-to-expensive-predicate: abandon the plan's cheap
  conditioning for this tuple and evaluate the original query's
  predicates directly.  One proven-false predicate decides ``False``
  even when other reads fail; the tuple abstains only when a
  query-essential read itself stays unavailable with no predicate
  falsified.
- **IMPUTE** — an unavailable *conditioning* read follows the branch the
  training marginal makes more likely; positive verdicts reached through
  an imputed branch are re-confirmed on real values before being emitted
  (unless ``confirm_positives`` is off — which the verifier's FT001 rule
  flags as unsound).

A window runs in two passes.  The vectorised walker first routes every
row as if no fault fired and records which attributes each row reads;
one vectorised call then rolls the row-keyed dice
(:func:`~repro.faults.state.fault_dice`) for those reads.  Rows where no
die lands and no outage burst is owed keep the clean walk's answer and
cost.  The remaining rows run, in row order, through the degraded walk
over the carried :class:`~repro.faults.state.FaultState`, so bursts,
budgets and stuck values see exactly the attempt sequence a row-at-a-time
run would.  The result depends only on the rows, their ids and the state
the window starts from, never on how a run is cut into windows.

Soundness here means: a ``True`` verdict implies the query holds on the
values the executor *actually observed*.  Silently corrupting faults
(stuck-at-last, noise) are undetectable by construction, so guarantees
are stated against delivered values, not ground truth — the chaos suite
asserts exactly this invariant.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from repro.core.attributes import Schema
from repro.core.cost import dataset_execution, predicate_mask
from repro.core.ledger import Ledger
from repro.core.plan import (
    ConditionNode,
    PlanNode,
    SequentialNode,
    SequentialStep,
    VerdictLeaf,
)
from repro.core.query import ConjunctiveQuery
from repro.core.ranges import RangeVector
from repro.exceptions import FaultConfigError, PlanError, SchemaError
from repro.faults.model import FaultSchedule
from repro.faults.policy import DegradationMode, FaultPolicy
from repro.faults.state import FaultState, fault_dice, noise_bits
from repro.probability.base import Distribution

__all__ = [
    "FaultedExecutionResult",
    "FaultedDatasetExecution",
    "FaultTolerantExecutor",
    "query_read_plan",
]


def query_read_plan(query: ConjunctiveQuery) -> SequentialNode:
    """Every query predicate in query order: the plan-less warm-up read.

    Run with ``read_all=True`` it acquires each query attribute and
    evaluates the query without short-circuiting.
    """
    return SequentialNode(
        steps=tuple(
            SequentialStep(predicate=predicate, attribute_index=index)
            for predicate, index in zip(query.predicates, query.attribute_indices)
        )
    )


@dataclass(frozen=True)
class FaultedExecutionResult:
    """Outcome of one tuple's execution under faults.

    ``verdict`` is three-valued: ``True`` (selected), ``False``
    (rejected), or ``None`` (abstained — the tuple is withdrawn from the
    result set and must be surfaced to the caller).  ``observed`` maps
    each acquired attribute to the value actually delivered, which is
    the reference frame for the soundness guarantee.
    """

    verdict: bool | None
    cost: float
    base_cost: float
    retry_cost: float
    acquired: frozenset[int]
    failed: frozenset[int]
    imputed: frozenset[int]
    degraded: bool
    observed: Mapping[int, int]

    @property
    def abstained(self) -> bool:
        return self.verdict is None

    @property
    def reads(self) -> int:
        return len(self.acquired)


@dataclass(frozen=True)
class FaultedDatasetExecution:
    """Per-row outcome vectors of one window plus the state after it.

    Row ``i`` is selected where ``verdicts[i]``, withdrawn where
    ``abstains[i]``, and rejected otherwise.  The rows-by-attributes
    matrices say which attributes each row acquired (``observed`` holds
    the delivered values there, zero elsewhere), which reads stayed
    unavailable after retries, and which conditioning reads were imputed.

    The cost :attr:`ledger` books ``base_cost`` and ``retry_cost``, which
    add up to ``total_cost`` (the conservation law the chaos suite
    checks).  The fault counters come from ``state`` and so cover the
    whole run the window belongs to.
    ``checkpoints`` pairs a row count ``k`` with the state after the
    first ``k`` rows, save that no clean read is yet counted in
    ``attempts``: the start state at 0, and a copy after each row the
    degraded walk ran (:meth:`state_at` reads them).
    """

    costs: np.ndarray
    base_costs: np.ndarray
    retry_costs: np.ndarray
    verdicts: np.ndarray
    abstains: np.ndarray
    degraded: np.ndarray
    acquired: np.ndarray
    observed: np.ndarray
    failed: np.ndarray
    imputed: np.ndarray
    state: FaultState
    checkpoints: list[tuple[int, FaultState]] = field(
        default_factory=list, repr=False, compare=False
    )

    @property
    def rows(self) -> int:
        return int(self.costs.size)

    def state_at(self, rows: int) -> FaultState:
        """The state after the first ``rows`` rows, as if only they ran.

        It equals the state :meth:`FaultTolerantExecutor.run` returns for
        those rows alone from the same start state, since a row's outcome
        never depends on the rows after it.  The last checkpoint at or
        before the cut is followed only by clean rows: their reads are
        added to ``attempts``, and each stuck-prone attribute's last
        clean read since the checkpoint becomes its last delivered value.
        """
        if rows >= self.rows:
            return self.state
        positions = [position for position, _ in self.checkpoints]
        position, saved = self.checkpoints[bisect_right(positions, rows) - 1]
        state = saved.copy()
        walked = [end - 1 for end in positions[1:] if end <= rows]
        state.attempts += int(np.count_nonzero(self.acquired[:rows])) - int(
            np.count_nonzero(self.acquired[walked])
        )
        for attribute, profile in state.profiles.items():
            if profile.stuck_rate > 0.0:
                readers = np.flatnonzero(self.acquired[position:rows, attribute])
                if readers.size:
                    state.last_delivered[attribute] = int(
                        self.observed[position + readers[-1], attribute]
                    )
        return state

    @property
    def selected(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.verdicts))

    @property
    def abstained(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.abstains))

    @property
    def tuples_abstained(self) -> int:
        return int(np.count_nonzero(self.abstains))

    @property
    def tuples_degraded(self) -> int:
        return int(np.count_nonzero(self.degraded))

    @property
    def total_cost(self) -> float:
        return float(self.costs.sum())

    @property
    def base_cost(self) -> float:
        return float(self.base_costs.sum())

    @property
    def retry_cost(self) -> float:
        return float(self.retry_costs.sum())

    @property
    def ledger(self) -> Ledger:
        """The base and retry sums as an Eq. 3 ledger: the chaos audit
        checks ``ledger.conserved(total_cost)``."""
        return Ledger(base_cost=self.base_cost, retry_cost=self.retry_cost)

    @property
    def acquisitions_failed(self) -> int:
        return self.state.acquisitions_failed

    @property
    def retries_total(self) -> int:
        return self.state.retries_total

    @property
    def failures_by_kind(self) -> Mapping[str, int]:
        return dict(self.state.failures)

    @cached_property
    def results(self) -> tuple[FaultedExecutionResult, ...]:
        """The same outcome as one result object per row."""
        return tuple(self._result(row) for row in range(self.rows))

    def _result(self, row: int) -> FaultedExecutionResult:
        acquired = [int(i) for i in np.flatnonzero(self.acquired[row])]
        verdict = None if self.abstains[row] else bool(self.verdicts[row])
        return FaultedExecutionResult(
            verdict=verdict,
            cost=float(self.costs[row]),
            base_cost=float(self.base_costs[row]),
            retry_cost=float(self.retry_costs[row]),
            acquired=frozenset(acquired),
            failed=frozenset(int(i) for i in np.flatnonzero(self.failed[row])),
            imputed=frozenset(int(i) for i in np.flatnonzero(self.imputed[row])),
            degraded=bool(self.degraded[row]),
            observed={i: int(self.observed[row, i]) for i in acquired},
        )


class _RowWalk:
    """The degraded walk of one row whose reads meet a fault.

    Attempts run in the order a row-at-a-time executor would make them,
    against the shared :class:`FaultState`.  ``lanes`` maps an attribute
    to its lane in the window's precomputed dice for this row
    (``uniform``/``bits``, lanes by attempts); other dice are computed
    on demand.
    """

    __slots__ = (
        "_executor", "_state", "_values", "_row", "_lanes", "_uniform",
        "_bits", "cache", "tries", "failed", "imputed", "degraded",
        "cost", "base_cost", "retry_cost",
    )

    def __init__(
        self,
        executor: "FaultTolerantExecutor",
        state: FaultState,
        values: Sequence[int],
        row: int,
        lanes: Mapping[int, int],
        uniform: Sequence[Sequence[float]],
        bits: Sequence[Sequence[int]],
    ) -> None:
        self._executor = executor
        self._state = state
        self._values = values
        self._row = row
        self._lanes = lanes
        self._uniform = uniform
        self._bits = bits
        self.cache: dict[int, int] = {}
        self.tries: dict[int, int] = {}
        self.failed: set[int] = set()
        self.imputed: set[int] = set()
        self.degraded = False
        self.cost = 0.0
        self.base_cost = 0.0
        self.retry_cost = 0.0

    def acquire(self, attribute: int) -> int | None:
        """The delivered value, or ``None`` once retries are exhausted."""
        cached = self.cache.get(attribute)
        if cached is not None:
            return cached
        executor = self._executor
        state = self._state
        retry = executor.policy.retry
        cost = executor._costs[attribute]
        lane = self._lanes.get(attribute)
        retry_number = 0
        while True:
            charge = state.charge(cost, retry_number, retry)
            if retry_number > 0:
                self.retry_cost += charge
            else:
                self.base_cost += charge
            self.cost += charge
            attempt = self.tries.get(attribute, 0)
            self.tries[attribute] = attempt + 1
            dice = None
            if lane is not None and attempt < len(self._uniform[lane]):
                dice = (self._uniform[lane][attempt], self._bits[lane][attempt])
            value, _kind = state.roll(
                attribute,
                self._row,
                attempt,
                self._values[attribute],
                executor._domains[attribute],
                dice,
            )
            if value is not None:
                self.cache[attribute] = value
                return value
            if not state.may_retry(attribute, retry_number, retry):
                return None
            state.spend_retry(attribute)
            retry_number += 1

    def execute(self, plan: PlanNode) -> bool | None:
        verdict = self._walk(plan)
        if (
            verdict is True
            and self.imputed
            and self._executor.policy.confirm_positives
        ):
            # An imputed branch routed us to TRUE: re-derive the verdict
            # from the query's own predicates on real values.
            verdict = self._skip_evaluate()
        return verdict

    def read_all(self, steps: Sequence[SequentialStep]) -> bool | None:
        """Acquire every step's attribute, evaluating without short-circuit.

        A falsified predicate decides ``False``; otherwise any read that
        stays unavailable abstains the tuple (under ABSTAIN, at once).
        """
        abstain = self._executor.policy.degradation is DegradationMode.ABSTAIN
        verdict: bool | None = True
        for step in steps:
            value = self.acquire(step.attribute_index)
            if value is None:
                self.failed.add(step.attribute_index)
                self.degraded = True
                if abstain:
                    return None
                if verdict is True:
                    verdict = None
                continue
            if not step.predicate.satisfied_by(value):
                verdict = False
        return verdict

    def _walk(self, node: PlanNode) -> bool | None:
        if isinstance(node, VerdictLeaf):
            return node.verdict
        if isinstance(node, SequentialNode):
            for step in node.steps:
                value = self.acquire(step.attribute_index)
                if value is None:
                    return self._degrade(step.attribute_index, None)
                if not step.predicate.satisfied_by(value):
                    return False
            return True
        if isinstance(node, ConditionNode):
            value = self.acquire(node.attribute_index)
            if value is None:
                return self._degrade(node.attribute_index, node)
            branch = node.above if value >= node.split_value else node.below
            return self._walk(branch)
        raise PlanError(f"unknown plan node type {type(node).__name__}")

    def _degrade(
        self, attribute: int, node: ConditionNode | None
    ) -> bool | None:
        """Retries are spent; pick the degraded path for this tuple."""
        self.failed.add(attribute)
        self.degraded = True
        executor = self._executor
        mode = executor.policy.degradation
        if mode is DegradationMode.ABSTAIN:
            return None
        if (
            mode is DegradationMode.IMPUTE
            and node is not None
            and executor.distribution is not None
        ):
            # Follow the branch the training marginal favours; the
            # confirm-positives pass in execute keeps this sound.
            p_below = executor.distribution.split_probability(
                node.attribute_index,
                node.split_value,
                RangeVector.full(executor.schema),
            )
            self.imputed.add(attribute)
            return self._walk(node.below if p_below >= 0.5 else node.above)
        # SKIP, or IMPUTE with nothing to impute from / a failed
        # predicate read: evaluate the query's own predicates directly.
        return self._skip_evaluate()

    def _skip_evaluate(self) -> bool | None:
        """Evaluate the original query on real values (the SKIP path).

        One falsified predicate decides ``False`` outright; otherwise any
        unreadable predicate attribute forces an abstain — never a
        fabricated ``True``.
        """
        query = self._executor.query
        assert query is not None  # guaranteed by the constructor
        any_failed = False
        for predicate, index in zip(query.predicates, query.attribute_indices):
            value = self.acquire(index)
            if value is None:
                self.failed.add(index)
                any_failed = True
                continue
            if not predicate.satisfied_by(value):
                return False
        return None if any_failed else True


class FaultTolerantExecutor:
    """Executes plans over windows of rows with graceful degradation.

    Parameters
    ----------
    schema:
        Table schema; must match every window the executor is handed.
    policy:
        The :class:`FaultPolicy` in force; defaults to retrying twice and
        abstaining on exhaustion.
    query:
        The original query — required for ``SKIP`` (its predicates *are*
        the degraded path) and for confirming imputed positives under
        ``IMPUTE``.  The verifier's FT002 rule enforces this statically.
    distribution:
        Training distribution for ``IMPUTE``'s marginals.  Without one,
        imputation falls back to ``SKIP`` semantics at the failed read.
    """

    def __init__(
        self,
        schema: Schema,
        policy: FaultPolicy | None = None,
        query: ConjunctiveQuery | None = None,
        distribution: Distribution | None = None,
    ) -> None:
        self._schema = schema
        self._policy = policy if policy is not None else FaultPolicy()
        self._query = query
        self._distribution = distribution
        mode = self._policy.degradation
        if mode is not DegradationMode.ABSTAIN and query is None:
            raise FaultConfigError(
                f"degradation mode {mode.value!r} needs the original query "
                "to evaluate the degraded path; pass query= or use ABSTAIN"
            )
        if query is not None and query.schema is not schema:
            raise FaultConfigError("query schema differs from executor schema")
        self._costs = tuple(float(cost) for cost in schema.costs)
        self._domains = tuple(attribute.domain_size for attribute in schema)
        self._domain_array = np.array(self._domains, dtype=np.int64)

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def policy(self) -> FaultPolicy:
        return self._policy

    @property
    def query(self) -> ConjunctiveQuery | None:
        return self._query

    @property
    def distribution(self) -> Distribution | None:
        return self._distribution

    def run(
        self,
        plan: PlanNode,
        data: np.ndarray,
        schedule: FaultSchedule | None = None,
        rng: np.random.Generator | None = None,
        *,
        state: FaultState | None = None,
        first_row: int = 0,
        read_all: bool = False,
    ) -> FaultedDatasetExecution:
        """Execute one window of rows; the returned state carries on.

        Start a run with ``schedule`` and ``rng`` (a fresh
        :class:`FaultState`), or continue one by passing the ``state`` a
        previous window returned; ``state`` itself is never modified.
        The result's :meth:`~FaultedDatasetExecution.state_at` gives the
        state after any prefix of the window, so a window cut short need
        not run again.  ``first_row`` is the run-wide id of the window's
        first row — the dice coordinate.

        With ``read_all`` the plan must be sequential and every step's
        attribute is acquired regardless of earlier verdicts (a
        plan-less warm-up or full-information read).
        """
        if state is None:
            if schedule is None or rng is None:
                raise FaultConfigError(
                    "run needs a schedule and rng to start a run, or the "
                    "state of the run it continues"
                )
            state = FaultState.fresh(schedule.validated(self._schema), rng)
        elif schedule is not None or rng is not None:
            raise FaultConfigError(
                "pass either schedule and rng, or state — not both"
            )
        rows = self._validated(data)
        steps = self._read_all_steps(plan) if read_all else None
        return self._window(plan, steps, rows, first_row, state)

    def execute_source(
        self,
        plan: PlanNode,
        values: Sequence[int],
        state: FaultState,
        row: int = 0,
    ) -> FaultedDatasetExecution:
        """One tuple as a one-row window of :meth:`run` at row id ``row``."""
        return self.run(plan, [list(values)], state=state, first_row=row)

    # ------------------------------------------------------------------
    # The window kernel
    # ------------------------------------------------------------------

    def _validated(self, data: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
        rows = np.asarray(data, dtype=np.int64)
        if rows.ndim == 1 and rows.size == 0:
            rows = rows.reshape(0, len(self._schema))
        if rows.ndim != 2 or rows.shape[1] != len(self._schema):
            raise PlanError(
                f"data shape {rows.shape} incompatible with schema of "
                f"{len(self._schema)} attributes"
            )
        if rows.size and ((rows < 1) | (rows > self._domain_array)).any():
            raise SchemaError("a row value falls outside its attribute's domain")
        return rows

    @staticmethod
    def _read_all_steps(plan: PlanNode) -> tuple[SequentialStep, ...]:
        if not isinstance(plan, SequentialNode):
            raise PlanError(
                f"read_all needs a sequential plan, got {type(plan).__name__}"
            )
        return plan.steps

    def _clean(
        self,
        plan: PlanNode,
        steps: Sequence[SequentialStep] | None,
        rows: np.ndarray,
        reads: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Costs and verdicts of every row as if no fault fired; fills ``reads``."""
        if steps is None:
            clean = dataset_execution(plan, rows, self._schema, reads=reads)
            return clean.costs, clean.verdicts
        costs = np.zeros(rows.shape[0], dtype=np.float64)
        verdicts = np.ones(rows.shape[0], dtype=bool)
        charged: set[int] = set()
        for step in steps:
            index = step.attribute_index
            if index not in charged:
                charged.add(index)
                costs += self._costs[index]
                reads[:, index] = True
            verdicts &= predicate_mask(step.predicate, rows[:, index])
        return costs, verdicts

    def _window(
        self,
        plan: PlanNode,
        steps: Sequence[SequentialStep] | None,
        rows: np.ndarray,
        first_row: int,
        start: FaultState,
    ) -> FaultedDatasetExecution:
        """Run the window from ``start``, which stays untouched."""
        n, width = rows.shape
        state = start.copy()
        reads = np.zeros((n, width), dtype=bool)
        costs, verdicts = self._clean(plan, steps, rows, reads)
        out = FaultedDatasetExecution(
            costs=costs,
            base_costs=costs.copy(),
            retry_costs=np.zeros(n, dtype=np.float64),
            verdicts=verdicts,
            abstains=np.zeros(n, dtype=bool),
            degraded=np.zeros(n, dtype=bool),
            acquired=reads,
            observed=np.where(reads, rows, 0),
            failed=np.zeros((n, width), dtype=bool),
            imputed=np.zeros((n, width), dtype=bool),
            state=state,
            checkpoints=[(0, start)],
        )
        clean_reads = int(np.count_nonzero(reads))
        # Attributes with a live profile that some row's clean walk reads;
        # no other read can meet a fault before a walked row makes it.
        read_any = reads.any(axis=0)
        faulty = [a for a in state.profiles if read_any[a]]
        if faulty:
            walked = self._walk_faulted_rows(plan, steps, rows, first_row, faulty, out)
            if walked:
                clean_reads -= int(np.count_nonzero(reads[list(walked)]))
                self._write_walks(out, walked)
        state.attempts += clean_reads
        return out

    def _walk_faulted_rows(
        self,
        plan: PlanNode,
        steps: Sequence[SequentialStep] | None,
        rows: np.ndarray,
        first_row: int,
        faulty: list[int],
        out: FaultedDatasetExecution,
    ) -> dict[int, tuple[_RowWalk, bool | None]]:
        """Re-run, in row order, every row a die lands on or a burst reaches.

        A row keeps its clean answer unless one of its reads rolls a
        fault on its first attempt or arrives while an outage burst is
        still owed on the attribute.  The rows between two walked rows
        are clean, so the only state they advance is each stuck-prone
        attribute's last delivered value: the last clean read of it.
        After each walked row the state is copied into ``out.checkpoints``.
        """
        state = out.state
        reads = out.acquired
        n = rows.shape[0]
        profiles = [state.profiles[a] for a in faulty]
        uniform, bits = fault_dice(
            state.key.value,
            np.arange(first_row, first_row + n, dtype=np.uint64)[:, None, None],
            np.array(faulty, dtype=np.uint64)[None, :, None],
            np.arange(1 + self._policy.retry.max_retries, dtype=np.uint64),
        )
        # Noise bits are read only on a noisy read: skip them unless some
        # lane can be noisy.
        if any(p.noise_rate > 0.0 for p in profiles):
            bits = noise_bits(bits)
        # A die at or above its profile's summed rates reads clean.  The
        # margin keeps this test conservative against the rounding of the
        # rate ladder in FaultState.roll: a walked row is exact either way.
        rates = [
            p.failure_rate + p.stuck_rate + p.noise_rate + 1e-9 for p in profiles
        ]
        landed = np.flatnonzero(
            (reads[:, faulty] & (uniform[:, :, 0] < rates)).any(axis=1)
        ).tolist()
        landed.append(n)
        lanes = {a: j for j, a in enumerate(faulty)}
        stuck = [a for a, p in zip(faulty, profiles) if p.stuck_rate > 0.0]
        readers: dict[int, list[int]] = {}

        def readers_of(attribute: int) -> list[int]:
            found = readers.get(attribute)
            if found is None:
                found = readers[attribute] = np.flatnonzero(
                    reads[:, attribute]
                ).tolist()
            return found

        walked: dict[int, tuple[_RowWalk, bool | None]] = {}
        position = 0
        cursor = 0
        while True:
            if position:
                out.checkpoints.append((position, state.copy()))
            while landed[cursor] < position:
                cursor += 1
            row = landed[cursor]
            for attribute, owed in state.outage_remaining.items():
                if owed > 0 and attribute in lanes:
                    after = readers_of(attribute)
                    j = bisect_left(after, position)
                    if j < len(after) and after[j] < row:
                        row = after[j]
            for attribute in stuck:
                after = readers_of(attribute)
                j = bisect_left(after, row) - 1
                if j >= 0 and after[j] >= position:
                    state.last_delivered[attribute] = int(rows[after[j], attribute])
            if row >= n:
                return walked
            walk = _RowWalk(
                self, state, rows[row].tolist(), first_row + row,
                lanes, uniform[row].tolist(), bits[row].tolist(),
            )
            verdict = walk.read_all(steps) if steps is not None else walk.execute(plan)
            walked[row] = (walk, verdict)
            position = row + 1

    @staticmethod
    def _write_walks(
        out: FaultedDatasetExecution,
        walked: Mapping[int, tuple[_RowWalk, bool | None]],
    ) -> None:
        """Overwrite the walked rows' clean outcome with their walks."""
        index = list(walked)
        outcomes = list(walked.values())
        out.costs[index] = [walk.cost for walk, _ in outcomes]
        out.base_costs[index] = [walk.base_cost for walk, _ in outcomes]
        out.retry_costs[index] = [walk.retry_cost for walk, _ in outcomes]
        out.verdicts[index] = [verdict is True for _, verdict in outcomes]
        out.abstains[index] = [verdict is None for _, verdict in outcomes]
        out.degraded[index] = [walk.degraded for walk, _ in outcomes]
        out.acquired[index] = False
        out.observed[index] = 0
        for row, (walk, _verdict) in walked.items():
            for attribute, value in walk.cache.items():
                out.acquired[row, attribute] = True
                out.observed[row, attribute] = value
            for attribute in walk.failed:
                out.failed[row, attribute] = True
            for attribute in walk.imputed:
                out.imputed[row, attribute] = True
