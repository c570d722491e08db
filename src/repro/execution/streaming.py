"""Adaptive planning over data streams (Section 7, "Queries over data
streams").

When query evaluation runs over a continuous stream whose distribution
drifts, a plan trained once can decay.  The paper sketches the remedy:
maintain statistics over a sliding window and re-plan when they move.
:class:`StreamLoop` is that loop, written once; what runs next and when
to re-plan is an :class:`OrderingPolicy`.  There are two:
:class:`AdaptiveStreamExecutor` re-plans from scratch on an interval, on
cost drift or on profile drift (Sec. 7), and
:class:`~repro.learn.LearnedStreamExecutor` picks predicate orders with a
bandit.  Both report through one :class:`ReplanEvent` and one
:class:`StreamReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.core.attributes import Schema
from repro.core.cost import ExecutionObserver, dataset_execution
from repro.core.plan import PlanNode
from repro.core.query import ConjunctiveQuery
from repro.exceptions import FaultConfigError, PlanningError
from repro.planning.base import Planner
from repro.probability.empirical import EmpiricalDistribution

if TYPE_CHECKING:
    from repro.faults.model import FaultSchedule
    from repro.faults.policy import FaultPolicy
    from repro.learn.bandit import LearnedProvenance
    from repro.learn.ledger import RegretLedger
    from repro.obs.drift import DriftMonitor
    from repro.obs.profile import PlanProfile

__all__ = [
    "ReplanEvent",
    "StreamFaultStats",
    "StreamReport",
    "OrderingPolicy",
    "StreamLoop",
    "AdaptiveStreamExecutor",
]

# A factory building a planner for a freshly-fitted window distribution.
PlannerFactory = Callable[[EmpiricalDistribution], Planner]

OUTAGE = "outage"


@dataclass(frozen=True)
class ReplanEvent:
    """One plan-affecting decision: where it happened and what it promised.

    ``reason``: ``"interval"``, ``"drift"``, ``"profile-drift"`` (Sec. 7),
    ``"warmup"``, ``"order-swap"``, ``"commit"``, ``"drift-refit"``
    (bandit) or ``"outage"`` (either).  The Sec. 7 executor reports its
    first plan, fitted when the warm-up ends, as ``"interval"`` too (its
    :attr:`OrderingPolicy.warmup_reason`).  ``drift_score`` is the chi-square
    score behind a profile-drift or drift-refit.  The bandit fills the
    rest: the ``branch`` and ``arm`` a swap or commit concerns, whether
    learned evidence survived (``warm``), the unspent regret budget.
    """

    position: int
    expected_cost: float
    reason: str
    drift_score: float | None = None
    branch: str = "root"
    arm: int = -1
    warm: bool = False
    budget_remaining: float = 0.0


@dataclass(frozen=True)
class StreamFaultStats:
    """Run-wide fault accounting for a fault-injected stream."""

    acquisitions_failed: int = 0
    retries_total: int = 0
    tuples_degraded: int = 0
    tuples_abstained: int = 0
    corruptions: int = 0
    retry_cost: float = 0.0


@dataclass(frozen=True)
class StreamReport:
    """Outcome of streaming execution.

    ``abstained`` and ``faults`` are populated only for fault-injected
    runs; an abstained position carries ``verdicts == False`` (the tuple
    is not selected) with ``abstained == True`` marking the withdrawal.

    The bandit policy fills the learning fields.  ``pulls[i]`` is the arm
    id pulled for tuple ``i`` within its branch (-1 during warm-up);
    together with ``replans`` it is the full, byte-comparable decision
    trace.  ``ledger`` is a copy of the final regret ledger, ``plan`` the
    final served composite plan and, with ``provenance``, the pair the
    verifier's ``LRN`` rules audit; ``committed`` says whether every
    branch froze its incumbent.
    """

    costs: np.ndarray
    verdicts: np.ndarray
    replans: tuple[ReplanEvent, ...]
    abstained: np.ndarray | None = None
    faults: StreamFaultStats | None = None
    pulls: np.ndarray | None = None
    ledger: "RegretLedger | None" = None
    provenance: "LearnedProvenance | None" = None
    plan: PlanNode | None = None
    committed: bool | None = None

    @property
    def mean_cost(self) -> float:
        return float(self.costs.mean()) if self.costs.size else 0.0

    @property
    def total_cost(self) -> float:
        return float(self.costs.sum())

    def ledger_conserved(self) -> bool:
        assert self.ledger is not None, "only a learned stream carries a ledger"
        return self.ledger.conserved(self.total_cost)

    def as_dict(self) -> dict[str, Any]:
        summary: dict[str, Any] = {
            "tuples": int(self.costs.size),
            "total_cost": round(self.total_cost, 6),
            "mean_cost": round(self.mean_cost, 6),
            "selected": int(self.verdicts.sum()),
            "replans": len(self.replans),
        }
        if self.committed is not None:
            summary["committed"] = self.committed
        if self.ledger is not None:
            summary["ledger"] = self.ledger.as_dict()
        return summary


@dataclass(frozen=True)
class WindowStep:
    """What runs next: the rows up to ``end`` under ``plan`` (``None``: the
    policy's :meth:`~OrderingPolicy.row_step` on one row), reading every
    step if ``read_all``, with ``observer`` fed the walker's events."""

    end: int
    plan: PlanNode | None = None
    read_all: bool = False
    observer: ExecutionObserver | None = None


@dataclass(frozen=True)
class WindowRun:
    """One executed window from stream position ``start``: per-row costs
    and, under faults, where the outage trigger holds, which rows had a
    read stay unavailable, and the values read."""

    start: int
    costs: np.ndarray
    outage: np.ndarray | None = None
    failed: np.ndarray | None = None
    observed: np.ndarray | None = None


# A policy's verdict on a window: keep this many rows, then refit for
# this reason (``None``: no refit) with this drift score.
WindowCut = tuple[int, "str | None", "float | None"]


class OrderingPolicy:
    """Decides what runs next and when to re-plan, for one
    :meth:`StreamLoop.run`; the loop does the rest."""

    #: The ``reason`` of the refit that ends the warm-up.
    warmup_reason = "interval"

    def start(self, total: int, emit: Callable[[ReplanEvent], None]) -> int:
        """Take the stream length and the sink for non-refit events;
        return the warm-up length."""
        raise NotImplementedError

    def warmed(self, costs: np.ndarray) -> None:
        """The warm-up read metered ``costs`` (one per row)."""

    def refit(
        self,
        position: int,
        reason: str,
        distribution: EmpiricalDistribution,
        drift_score: float | None,
    ) -> ReplanEvent:
        """Re-plan on ``distribution`` (fit on the rows before ``position``)."""
        raise NotImplementedError

    def next_window(self, position: int, total: int) -> WindowStep:
        raise NotImplementedError

    def row_step(self, row: np.ndarray) -> tuple[float, bool]:
        """Run one row the policy's own way: its cost and verdict."""
        raise NotImplementedError

    def scan(self, run: WindowRun) -> WindowCut:
        raise NotImplementedError

    def report_fields(self, costs: np.ndarray) -> dict[str, Any]:
        """Extra :class:`StreamReport` fields, once the stream is done."""
        return {}


class StreamLoop:
    """The one sliding-window stream loop both executors run.

    A plan-less warm-up read of every query attribute fills the first
    window; each refit fits an :class:`EmpiricalDistribution` on the last
    ``window`` rows for the policy.  The stream then runs in the policy's
    windows through the vectorized walker or, with ``fault_schedule`` and
    the seeded ``fault_rng``, through
    :class:`~repro.faults.FaultTolerantExecutor` under ``fault_policy``
    (default: retry twice, then abstain) with one
    :class:`~repro.faults.state.FaultState` for the whole stream and the
    executor rebuilt per refit so IMPUTE marginals track the window.  The
    policy scans each window; where a trigger fires the loop cuts it and
    keeps the prefix with the fault state at the cut
    (:meth:`~repro.faults.executor.FaultedDatasetExecution.state_at`)
    instead of running it again.  Sustained
    outages are the loop's own ``"outage"`` trigger (see :meth:`_outage`).
    """

    def __init__(
        self,
        schema: Schema,
        query: ConjunctiveQuery,
        *,
        window: int,
        smoothing: float,
        on_replan: Callable[[ReplanEvent], None] | None,
        fault_schedule: "FaultSchedule | None",
        fault_policy: "FaultPolicy | None",
        fault_rng: np.random.Generator | None,
    ) -> None:
        if fault_schedule is not None:
            if fault_rng is None:
                raise FaultConfigError(
                    "fault_schedule requires fault_rng: fault injection is "
                    "deterministic and seeds flow from a single generator"
                )
            fault_schedule.validated(schema)
            if fault_policy is None:
                from repro.faults.policy import FaultPolicy

                fault_policy = FaultPolicy()
        self._schema = schema
        self._query = query
        self._window = int(window)
        self._smoothing = float(smoothing)
        self._on_replan = on_replan
        self._fault_schedule = fault_schedule
        self._fault_policy = fault_policy if fault_schedule is not None else None
        self._fault_rng = fault_rng
        self._read_cost = sum(float(schema[i].cost) for i in query.attribute_indices)

    @property
    def fault_policy(self) -> "FaultPolicy | None":
        """The fault policy in force, ``None`` on fault-free streams."""
        return self._fault_policy

    @property
    def observed(self) -> bool:
        """Whether windows emit the walker's per-node observer events.

        Per-node monitors (Sec. 7 profile drift, the bandit's chi-square
        refit) need them, so they run on fault-free streams only.
        """
        return self._fault_schedule is None

    def run(self, stream: np.ndarray, policy: OrderingPolicy) -> StreamReport:
        """Run the query over ``stream`` (rows in arrival order)."""
        from repro.faults.executor import FaultTolerantExecutor, query_read_plan
        from repro.faults.state import FaultState

        matrix = np.asarray(stream)
        if matrix.ndim != 2 or matrix.shape[1] != len(self._schema):
            raise PlanningError(
                f"stream shape {matrix.shape} incompatible with schema of "
                f"{len(self._schema)} attributes"
            )
        total = matrix.shape[0]
        replans: list[ReplanEvent] = []

        def emit(event: ReplanEvent) -> None:
            replans.append(event)
            if self._on_replan is not None:
                self._on_replan(event)

        warmup = policy.start(total, emit)
        costs = np.zeros(total, dtype=np.float64)
        verdicts = np.zeros(total, dtype=bool)
        abstained = np.zeros(total, dtype=bool)
        fails = np.zeros(total, dtype=bool)
        faults = self._fault_policy
        executor: FaultTolerantExecutor | None = None
        state: FaultState | None = None
        if faults is not None:
            assert self._fault_schedule is not None and self._fault_rng is not None
            executor = FaultTolerantExecutor(self._schema, faults, query=self._query)
            state = FaultState.fresh(self._fault_schedule, self._fault_rng)
        degraded = 0

        def refit(position: int, reason: str, drift_score: float | None) -> None:
            nonlocal executor
            rows = matrix[max(0, position - self._window) : position]
            distribution = EmpiricalDistribution(
                self._schema, rows, smoothing=self._smoothing
            )
            if faults is not None:
                executor = FaultTolerantExecutor(
                    self._schema, faults, query=self._query, distribution=distribution
                )
            emit(policy.refit(position, reason, distribution, drift_score))

        def execute(plan: PlanNode, start: int, end: int, step: WindowStep) -> Any:
            rows = matrix[start:end]
            if executor is None:
                return dataset_execution(
                    plan, rows, self._schema, observer=step.observer
                )
            return executor.run(
                plan, rows, state=state, first_row=start, read_all=step.read_all
            )

        def keep(outcome: Any, start: int, kept: int) -> None:
            nonlocal state, degraded
            end = start + kept
            costs[start:end] = outcome.costs[:kept]
            verdicts[start:end] = outcome.verdicts[:kept]
            if executor is not None:
                fails[start:end] = outcome.failed[:kept].any(axis=1)
                abstained[start:end] = outcome.abstains[:kept]
                degraded += int(np.count_nonzero(outcome.degraded[:kept]))
                state = outcome.state_at(kept)

        if warmup:
            read = query_read_plan(self._query)
            outcome = execute(read, 0, warmup, WindowStep(warmup, read_all=True))
            keep(outcome, 0, warmup)
            if executor is None:  # the walker short-circuits; the read does not
                costs[:warmup] = self._read_cost
            policy.warmed(costs[:warmup])
            refit(warmup, policy.warmup_reason, None)

        outage_start = 0  # the outage trigger forgets tuples before this
        position = warmup
        while position < total:
            step = policy.next_window(position, total)
            if step.plan is None:
                costs[position], verdicts[position] = policy.row_step(matrix[position])
                kept, reason, score = policy.scan(
                    WindowRun(position, costs[position : position + 1])
                )
            else:
                end = step.end
                outcome = execute(step.plan, position, end, step)
                run = WindowRun(position, outcome.costs)
                if executor is not None:
                    failed = fails[position:end] = outcome.failed.any(axis=1)
                    outage = self._outage(fails, outage_start, position, end)
                    run = WindowRun(
                        position, run.costs, outage, failed, outcome.observed
                    )
                kept, reason, score = policy.scan(run)
                keep(outcome, position, kept)
            position += kept
            if reason is not None:
                if reason == OUTAGE:
                    outage_start = position
                refit(position, reason, score)

        stats = None
        if state is not None:
            stats = StreamFaultStats(
                acquisitions_failed=state.acquisitions_failed,
                retries_total=state.retries_total,
                tuples_degraded=degraded,
                tuples_abstained=int(abstained.sum()),
                corruptions=state.corrupted,
                retry_cost=state.retry_cost,
            )
        return StreamReport(
            costs=costs,
            verdicts=verdicts,
            replans=tuple(replans),
            abstained=abstained if faults is not None else None,
            faults=stats,
            **policy.report_fields(costs),
        )

    def _outage(
        self, fails: np.ndarray, start: int, position: int, end: int
    ) -> np.ndarray | None:
        """Per row of ``[position, end)``: ``outage_window`` tuples have
        passed since ``start`` (the last outage refit) and at least
        ``outage_replan_threshold`` of the last ``outage_window`` had a read
        that stayed unavailable."""
        assert self._fault_policy is not None
        threshold = self._fault_policy.outage_replan_threshold
        if threshold is None:
            return None
        span = self._fault_policy.outage_window
        low = max(start, position - span)
        counts = np.concatenate(([0], np.cumsum(fails[low:end])))
        after = np.arange(position, end) + 1
        failing = counts[after - low] - counts[np.maximum(after - span - low, 0)]
        return (after - start >= span) & (failing / span >= threshold)


class AdaptiveStreamExecutor:
    """Sliding-window replanning executor: the Sec. 7 ordering policy.

    Over the one :class:`StreamLoop`, it re-plans from scratch on an
    interval, on cost drift or on profile drift.  Its windows end on
    ``replan_interval`` and (when profiling) ``profile_check_every``
    boundaries; a trigger that fires inside one cuts it there.

    Parameters
    ----------
    schema, query:
        The continuous query being evaluated.
    planner_factory:
        Builds a planner from an :class:`EmpiricalDistribution` fitted on
        the current window (e.g. ``lambda dist:
        GreedyConditionalPlanner(dist, CorrSeqPlanner(dist), max_splits=5)``).
    window:
        Sliding-window length (tuples) used to fit statistics.
    replan_interval:
        Re-plan after this many tuples since the last plan swap.
    drift_threshold:
        Re-plan early when the observed mean cost since the last swap
        exceeds the plan's predicted expected cost by this multiplicative
        factor.  ``None`` disables drift-triggered replanning.
    smoothing:
        Laplace smoothing for the window distributions (small windows make
        raw counts noisy).
    on_replan:
        Optional callback invoked with each :class:`ReplanEvent` as the
        plan is swapped — serving layers hook this to invalidate cached
        plans the moment the stream's statistics move.
    profile_drift_threshold:
        Enables per-node profile-drift replanning: the current plan's
        observed split/pass frequencies are scored against its Eq. 3
        predictions (see :class:`repro.obs.DriftMonitor`), and a
        normalized score above this threshold triggers a
        ``"profile-drift"`` replan.  ``None`` (default) disables the
        profile machinery entirely.  Per-node monitors need the walker's
        observer events, which fault-injected runs do not emit, so this
        raises :class:`~repro.exceptions.FaultConfigError` together with
        ``fault_schedule``.
    profile_check_every:
        Assess drift every this many tuples (scoring walks the whole
        profile, so per-tuple assessment would dominate).
    profile_min_tuples:
        Do not assess until the current plan has profiled at least this
        many tuples (small samples make the chi-square score noisy).
    fault_schedule, fault_policy, fault_rng:
        Fault injection (see :class:`StreamLoop`): the schedule replayed on
        row-keyed dice, the retry/degradation policy whose
        ``outage_replan_threshold`` drives ``"outage"`` replans, and the
        single seeded generator all fault randomness flows from.
    """

    def __init__(
        self,
        schema: Schema,
        query: ConjunctiveQuery,
        planner_factory: PlannerFactory,
        window: int = 4_000,
        replan_interval: int = 1_000,
        drift_threshold: float | None = 1.5,
        smoothing: float = 0.5,
        on_replan: Callable[[ReplanEvent], None] | None = None,
        profile_drift_threshold: float | None = None,
        profile_check_every: int = 128,
        profile_min_tuples: int = 256,
        fault_schedule: "FaultSchedule | None" = None,
        fault_policy: "FaultPolicy | None" = None,
        fault_rng: np.random.Generator | None = None,
    ) -> None:
        if window < 2:
            raise PlanningError(f"window must be >= 2, got {window}")
        if replan_interval < 1:
            raise PlanningError(f"replan_interval must be >= 1, got {replan_interval}")
        if drift_threshold is not None and drift_threshold <= 1.0:
            raise PlanningError(
                f"drift_threshold must exceed 1.0, got {drift_threshold}"
            )
        if profile_drift_threshold is not None and profile_drift_threshold <= 0:
            raise PlanningError(
                "profile_drift_threshold must be positive, got "
                f"{profile_drift_threshold}"
            )
        if profile_check_every < 1:
            raise PlanningError(
                f"profile_check_every must be >= 1, got {profile_check_every}"
            )
        if profile_min_tuples < 1:
            raise PlanningError(
                f"profile_min_tuples must be >= 1, got {profile_min_tuples}"
            )
        if fault_schedule is not None and profile_drift_threshold is not None:
            raise FaultConfigError(
                "profile_drift_threshold is unsupported under fault "
                "injection (per-node profiling needs the walker's observer "
                "events); use outage_replan_threshold instead"
            )
        self._schema = schema
        self._query = query
        self._factory = planner_factory
        self._window = int(window)
        self._replan_interval = int(replan_interval)
        self._drift_threshold = drift_threshold
        self._profile_drift_threshold = profile_drift_threshold
        self._profile_check_every = int(profile_check_every)
        self._profile_min_tuples = int(profile_min_tuples)
        self._loop = StreamLoop(
            schema,
            query,
            window=window,
            smoothing=smoothing,
            on_replan=on_replan,
            fault_schedule=fault_schedule,
            fault_policy=fault_policy,
            fault_rng=fault_rng,
        )

    def process(self, stream: np.ndarray) -> StreamReport:
        """Run the query over ``stream`` (rows in arrival order)."""
        return self._loop.run(stream, _ReplanPolicy(self))


class _ReplanPolicy(OrderingPolicy):
    """Sec. 7: refit and re-plan from scratch when a trigger fires."""

    def __init__(self, owner: AdaptiveStreamExecutor) -> None:
        self._owner = owner
        self._plan: PlanNode | None = None
        self._predicted = 0.0
        self._since = 0  # tuples run under the current plan
        self._spent = 0.0  # their summed cost
        self._profile: "PlanProfile | None" = None
        self._monitor: "DriftMonitor | None" = None

    def start(self, total: int, emit: Callable[[ReplanEvent], None]) -> int:
        return min(self._owner._window, self._owner._replan_interval, total)

    def refit(
        self,
        position: int,
        reason: str,
        distribution: EmpiricalDistribution,
        drift_score: float | None,
    ) -> ReplanEvent:
        owner = self._owner
        result = owner._factory(distribution).plan(owner._query)
        self._plan, self._predicted = result.plan, result.expected_cost
        self._since, self._spent = 0, 0.0
        threshold = owner._profile_drift_threshold
        if threshold is not None:
            from repro.obs.drift import DriftMonitor
            from repro.obs.profile import PlanProfile

            self._profile = PlanProfile(owner._schema)
            self._monitor = DriftMonitor(
                self._plan, distribution, expected=self._predicted, threshold=threshold
            )
        return ReplanEvent(position, self._predicted, reason, drift_score=drift_score)

    def next_window(self, position: int, total: int) -> WindowStep:
        owner = self._owner
        room = owner._replan_interval - self._since
        if self._monitor is not None:
            every = owner._profile_check_every
            room = min(room, every - self._since % every)
        return WindowStep(
            end=min(total, position + room), plan=self._plan, observer=self._profile
        )

    def scan(self, run: WindowRun) -> WindowCut:
        owner = self._owner
        rows = run.costs.size
        since = np.arange(self._since + 1, self._since + rows + 1)
        # Accumulate from the carried sum, row by row, so the running
        # mean is the same float whatever the window boundaries.
        spent = np.cumsum(np.concatenate(([self._spent], run.costs)))[1:]
        drifted = np.zeros(rows, dtype=bool)
        threshold = owner._drift_threshold
        if threshold is not None and self._predicted > 0.0:
            drifted = (since >= 50) & (spent / since > threshold * self._predicted)
        fired = (since >= owner._replan_interval) | drifted
        if run.outage is not None:
            fired |= run.outage
        # Windows end on profile-check boundaries, so only the last row
        # can be a check; it is reached unless an earlier row fired.
        score = None
        if (
            self._monitor is not None
            and self._profile is not None
            and not fired[:-1].any()
            and not drifted[-1]
            and since[-1] % owner._profile_check_every == 0
            and self._profile.tuples >= owner._profile_min_tuples
        ):
            assessment = self._monitor.assess(self._profile)
            if assessment.drifted:
                score = assessment.normalized
                fired[-1] = True
        if not fired.any():
            self._since += rows
            self._spent = float(spent[-1])
            return rows, None, None
        cut = int(np.argmax(fired))
        if run.outage is not None and run.outage[cut]:
            reason = OUTAGE
        elif drifted[cut]:
            reason = "drift"
        elif score is not None:
            reason = "profile-drift"
        else:
            reason = "interval"
        return cut + 1, reason, score
