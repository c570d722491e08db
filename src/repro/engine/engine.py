"""The acquisitional query engine facade.

Ties the whole pipeline together behind a TinyDB-flavoured interface
(the system lineage the paper builds on): register a schema and historical
readings, then issue textual queries.  The engine plans each query with the
conditional heuristic (or any planner you inject), executes it over live
readings with full cost accounting — including the cost of acquiring
*selected* attributes for matching tuples, which the WHERE plan may not
have touched — and can EXPLAIN its plans with branch probabilities.

    engine = AcquisitionalEngine(schema, history)
    result = engine.execute("SELECT temp WHERE light >= 9 AND temp <= 4", live)
    print(engine.explain("SELECT temp WHERE light >= 9 AND temp <= 4"))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

from repro.core.analysis import annotate_plan, plan_summary
from repro.core.attributes import Schema
from repro.core.cost import ExecutionObserver, dataset_execution, projection_charges
from repro.core.plan import PlanNode
from repro.core.query import ConjunctiveQuery
from repro.engine.language import ParsedQuery, parse_query
from repro.exceptions import FaultConfigError, QueryError
from repro.planning.base import Planner
from repro.planning.corrseq import CorrSeqPlanner
from repro.planning.exhaustive import ExhaustivePlanner
from repro.planning.greedy_conditional import GreedyConditionalPlanner
from repro.planning.split_points import SplitPointPolicy
from repro.probability.empirical import EmpiricalDistribution

if TYPE_CHECKING:
    from repro.faults.model import FaultSchedule
    from repro.faults.policy import FaultPolicy

__all__ = [
    "PreparedQuery",
    "QueryResult",
    "ResilientQueryResult",
    "AcquisitionalEngine",
]

# Builds the planner used for each statement; receives the engine's fitted
# distribution so statistics are shared across statements.
PlannerFactory = Callable[[EmpiricalDistribution], Planner]


@dataclass(frozen=True)
class PreparedQuery:
    """A parsed, planned statement ready for repeated execution.

    Frozen and hashable (all compared fields are immutable), so prepared
    statements can key caches directly — the serving layer relies on
    this.  ``statistics_version`` records which generation of engine
    statistics the plan was trained on; ``planning_seconds`` is the
    wall-clock cost of producing it.

    Construction binds what every execution shares, outside equality:
    the result ``columns``, their attribute indices ``select`` and the
    plan's :func:`~repro.core.cost.projection_charges` table
    ``leaf_charges`` (read-only).
    """

    text: str
    parsed: ParsedQuery
    plan: PlanNode
    expected_where_cost: float
    planner: str
    statistics_version: int = 1
    planning_seconds: float = 0.0
    columns: tuple[str, ...] = field(init=False, repr=False, compare=False)
    select: tuple[int, ...] = field(init=False, repr=False, compare=False)
    leaf_charges: Mapping[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        schema = self.parsed.query.schema
        columns = schema.names if self.parsed.select_all else self.parsed.select
        select = tuple(schema.index_of(name) for name in columns)
        charges = projection_charges(self.plan, schema, select)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "select", select)
        object.__setattr__(self, "leaf_charges", charges)

    @property
    def query(self) -> ConjunctiveQuery:
        return self.parsed.query


@dataclass(frozen=True)
class QueryResult:
    """Rows plus the acquisition-cost accounting for one execution."""

    columns: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    tuples_scanned: int
    where_cost: float
    projection_cost: float

    @property
    def total_cost(self) -> float:
        return self.where_cost + self.projection_cost

    @property
    def mean_cost_per_tuple(self) -> float:
        if self.tuples_scanned == 0:
            return 0.0
        return self.total_cost / self.tuples_scanned

    def trace_fields(self) -> dict[str, Any]:
        """The result's span annotation: row and tuple counts, Eq. 3 costs."""
        return {
            "rows": len(self.rows),
            "tuples": self.tuples_scanned,
            "where_cost": self.where_cost,
            "projection_cost": self.projection_cost,
        }


@dataclass(frozen=True)
class ResilientQueryResult:
    """A :class:`QueryResult` plus the fault accounting behind it.

    ``abstained_rows`` indexes into the scanned readings: tuples the
    degraded execution withdrew from the result set rather than risk an
    unsound verdict.  ``retry_cost`` is the slice of ``where_cost`` spent
    on backed-off re-attempts — Eq. 3 predicts ``where_cost -
    retry_cost`` for the fault-free traversal.
    """

    result: QueryResult
    abstained_rows: tuple[int, ...]
    tuples_degraded: int
    acquisitions_failed: int
    retries_total: int
    retry_cost: float

    @property
    def tuples_abstained(self) -> int:
        return len(self.abstained_rows)

    def trace_fields(self) -> dict[str, Any]:
        """:meth:`QueryResult.trace_fields` plus the fault accounting.

        ``retry_cost`` is an annotation only: it is already a slice of
        ``where_cost``, so an audit sums ``where_cost + projection_cost``.
        """
        return {
            **self.result.trace_fields(),
            "retry_cost": self.retry_cost,
            "failed": self.acquisitions_failed,
            "retries": self.retries_total,
            "degraded": self.tuples_degraded,
            "abstained": self.tuples_abstained,
        }


class AcquisitionalEngine:
    """Plan and execute textual acquisitional queries.

    Parameters
    ----------
    schema:
        The acquisitional table's schema.
    history:
        Historical readings used to fit planning statistics (the
        basestation's training data, Section 2.5).
    planner_factory:
        Optional override for how statements are planned; defaults to
        Heuristic-5 over a CorrSeq base, the paper's best practical
        configuration.
    smoothing:
        Laplace smoothing for the engine's statistics.
    verify_plans:
        Debug mode: statically verify every plan the engine produces
        (:func:`repro.verify.assert_valid_plan`), raising
        :class:`~repro.exceptions.PlanVerificationError` on ERROR-level
        diagnostics.  Off by default — planners are trusted in
        production; turn it on in tests and when developing planners.
    """

    def __init__(
        self,
        schema: Schema,
        history: np.ndarray,
        planner_factory: PlannerFactory | None = None,
        smoothing: float = 0.0,
        verify_plans: bool = False,
    ) -> None:
        self._schema = schema
        self._smoothing = float(smoothing)
        self._verify_plans = bool(verify_plans)
        self._distribution = EmpiricalDistribution(
            schema, history, smoothing=smoothing
        )
        self._planner_factory = planner_factory or (
            lambda distribution: GreedyConditionalPlanner(
                distribution, CorrSeqPlanner(distribution), max_splits=5
            )
        )
        self._prepared: dict[str, PreparedQuery] = {}
        self._statistics_version = 1
        self._statistics_listeners: list[Callable[[int], None]] = []

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def distribution(self) -> EmpiricalDistribution:
        return self._distribution

    @property
    def planner_factory(self) -> PlannerFactory:
        """The factory building this engine's conjunctive planners."""
        return self._planner_factory

    @property
    def statistics_version(self) -> int:
        """Generation counter for the engine's planning statistics.

        Bumps whenever the distribution is refitted (:meth:`refit`) or an
        external component reports that statistics moved
        (:meth:`bump_statistics_version`, e.g. an adaptive-stream replan).
        Plans trained under an older version are stale.
        """
        return self._statistics_version

    def add_statistics_listener(
        self, listener: Callable[[int], None]
    ) -> None:
        """Register a callback invoked with each new statistics version."""
        self._statistics_listeners.append(listener)

    def bump_statistics_version(self) -> int:
        """Invalidate every prepared plan: statistics have changed."""
        self._statistics_version += 1
        self._prepared.clear()
        for listener in self._statistics_listeners:
            listener(self._statistics_version)
        return self._statistics_version

    def refit(
        self, history: np.ndarray, smoothing: float | None = None
    ) -> int:
        """Refit planning statistics on fresh history.

        Rebuilds the empirical distribution, drops every prepared plan
        (they were trained on the old statistics), and bumps
        :attr:`statistics_version` so external plan caches invalidate too.
        Returns the new version.
        """
        if smoothing is not None:
            self._smoothing = float(smoothing)
        self._distribution = EmpiricalDistribution(
            self._schema, history, smoothing=self._smoothing
        )
        return self.bump_statistics_version()

    def prepare(self, text: str) -> PreparedQuery:
        """Parse and plan a statement (cached per query text).

        Conjunctive WHERE clauses go to the configured planner (Heuristic-5
        by default); disjunctive clauses go to the exhaustive planner with
        a coarse split-point policy, since sequential base planners carry
        conjunctive semantics only (Section 3.1 vs Section 4.1).
        """
        cached = self._prepared.get(text)
        if cached is not None:
            return cached
        parsed = parse_query(text, self._schema)
        prepared = self.prepare_parsed(parsed, text=text)
        self._prepared[text] = prepared
        return prepared

    def prepare_parsed(
        self, parsed: ParsedQuery, text: str = ""
    ) -> PreparedQuery:
        """Plan an already-parsed statement (no prepared-statement cache).

        The serving layer uses this after canonicalization, where the cache
        key is a query fingerprint rather than the raw text.
        """
        if parsed.is_conjunctive:
            planner = self._planner_factory(self._distribution)
        else:
            policy = SplitPointPolicy.equal_width(
                self._schema, [2] * len(self._schema)
            )
            planner = ExhaustivePlanner(
                self._distribution,
                split_policy=policy,
                max_subproblems=500_000,
            )
        result = planner.plan_timed(parsed.query)
        if self._verify_plans:
            from repro.verify import assert_valid_plan

            assert_valid_plan(
                result.plan,
                self._schema,
                query=parsed.query,
                distribution=self._distribution,
                claimed_cost=result.expected_cost,
                subject=f"plan[{result.planner}]",
            )
        return PreparedQuery(
            text=text,
            parsed=parsed,
            plan=result.plan,
            expected_where_cost=result.expected_cost,
            planner=result.planner,
            statistics_version=self._statistics_version,
            planning_seconds=result.planning_seconds,
        )

    def execute(self, text: str, readings: np.ndarray) -> QueryResult:
        """Run a statement over live readings with cost accounting.

        The WHERE clause runs through the conditional plan; for matching
        tuples, any *selected* attributes the plan did not already acquire
        are then acquired at their schema cost (the plan may well have read
        some of them while filtering — those are free to return).
        """
        return self.execute_prepared(self.prepare(text), readings)

    def execute_prepared(
        self,
        prepared: PreparedQuery,
        readings: np.ndarray,
        observer: ExecutionObserver | None = None,
    ) -> QueryResult:
        """Run an already-prepared statement over live readings.

        ``observer`` (usually a :class:`repro.obs.PlanProfile`) meters the
        WHERE plan's per-node behaviour; post-WHERE projection
        acquisitions are accounted in ``projection_cost`` but are not
        node events, so they stay outside the profile.
        """
        return self.execute_prepared_many(prepared, [readings], observer)[0]

    def execute_prepared_resilient(
        self,
        prepared: PreparedQuery,
        readings: np.ndarray,
        schedule: "FaultSchedule",
        rng: np.random.Generator,
        policy: "FaultPolicy | None" = None,
    ) -> ResilientQueryResult:
        """Run a prepared statement with fault injection and degradation.

        WHERE-clause acquisitions roll the seeded schedule's row-keyed
        dice in :class:`~repro.faults.FaultTolerantExecutor`; once retries
        are exhausted
        the configured :class:`~repro.faults.FaultPolicy` degrades the
        tuple (abstain / skip-to-predicates / impute).  Abstained tuples
        are excluded from the rows and reported in ``abstained_rows``.
        Projection acquisitions for matching tuples are charged at schema
        cost as in :meth:`execute_prepared` (result reporting is assumed
        reliable once a tuple matches).
        """
        from repro.faults.executor import FaultTolerantExecutor
        from repro.faults.policy import DegradationMode, FaultPolicy

        matrix = self.validate_readings(readings)
        effective = policy if policy is not None else FaultPolicy()
        query = prepared.parsed.query if prepared.parsed.is_conjunctive else None
        if (
            query is None
            and effective.degradation is not DegradationMode.ABSTAIN
        ):
            raise FaultConfigError(
                "SKIP/IMPUTE degradation needs a conjunctive query as its "
                "fallback path; disjunctive statements must use ABSTAIN"
            )
        executor = FaultTolerantExecutor(
            self._schema,
            effective,
            query=query,
            distribution=self._distribution,
        )
        outcome = executor.run(prepared.plan, matrix, schedule, rng)
        # Each matching row pays projection at the leaf its true readings
        # reach, as on the fault-free path.
        matching = np.flatnonzero(outcome.verdicts)
        extra = np.zeros(matrix.shape[0])
        extra[matching] = dataset_execution(
            prepared.plan, matrix[matching], self._schema,
            leaf_charges=prepared.leaf_charges,
        ).projection
        result = self._build_result(
            prepared, matrix, outcome.costs, outcome.verdicts, extra
        )
        return ResilientQueryResult(
            result=result,
            abstained_rows=outcome.abstained,
            tuples_degraded=outcome.tuples_degraded,
            acquisitions_failed=outcome.acquisitions_failed,
            retries_total=outcome.retries_total,
            retry_cost=outcome.retry_cost,
        )

    def execute_prepared_many(
        self,
        prepared: PreparedQuery,
        readings_list: list[np.ndarray],
        observer: ExecutionObserver | None = None,
    ) -> list[QueryResult]:
        """Run one prepared statement over many batches in a single pass.

        The batches are stacked and executed through the plan once — the
        vectorized tree walk amortizes across every request sharing the
        plan — then per-batch results are sliced back out.  This is the
        serving layer's same-fingerprint admission path.  ``observer``
        meters the WHERE plan exactly as in :meth:`execute_prepared`.
        """
        matrices = [self.validate_readings(readings) for readings in readings_list]
        if not matrices:
            return []
        # One batch runs in place, without a stacking copy.
        stacked = matrices[0] if len(matrices) == 1 else np.vstack(matrices)
        outcome = dataset_execution(
            prepared.plan, stacked, self._schema, observer=observer,
            leaf_charges=prepared.leaf_charges,
        )
        results: list[QueryResult] = []
        start = 0
        for matrix in matrices:
            end = start + matrix.shape[0]
            results.append(
                self._build_result(
                    prepared,
                    matrix,
                    outcome.costs[start:end],
                    outcome.verdicts[start:end],
                    outcome.projection[start:end],
                )
            )
            start = end
        return results

    def validate_readings(self, readings: np.ndarray) -> np.ndarray:
        """``readings`` as a matrix with one column per attribute, else QueryError."""
        matrix = np.asarray(readings)
        if matrix.ndim != 2 or matrix.shape[1] != len(self._schema):
            raise QueryError(
                f"readings shape {matrix.shape} incompatible with schema of "
                f"{len(self._schema)} attributes"
            )
        return matrix

    @staticmethod
    def _build_result(
        prepared: PreparedQuery,
        matrix: np.ndarray,
        costs: np.ndarray,
        verdicts: np.ndarray,
        extra: np.ndarray,
    ) -> QueryResult:
        """The matching rows, gathered once and assembled column-wise.

        One ``compress`` on the verdict mask gathers the matches, one
        ``tolist`` per SELECT column and one ``zip`` build the row tuples
        directly, allocating far fewer GC-tracked objects than a 2-D
        ``tolist`` plus a ``tuple`` per row; values stay Python ints.
        """
        matches = matrix.compress(verdicts, axis=0).astype(np.int64, copy=False)
        return QueryResult(
            columns=prepared.columns,
            rows=tuple(zip(*(matches[:, index].tolist() for index in prepared.select))),
            tuples_scanned=matrix.shape[0],
            where_cost=float(costs.sum()),
            projection_cost=float(extra.compress(verdicts).sum()),
        )

    def explain(self, text: str) -> str:
        """Human-readable plan report with branch probabilities."""
        prepared = self.prepare(text)
        summary = plan_summary(prepared.plan)
        lines = [
            f"query: {text.strip()}",
            f"where clause: {prepared.query.describe()}",
            f"planner: {prepared.planner}",
            f"expected WHERE cost/tuple: {prepared.expected_where_cost:.2f}",
            f"plan: {summary.describe()}",
            "",
            annotate_plan(prepared.plan, self._distribution),
        ]
        return "\n".join(lines)
