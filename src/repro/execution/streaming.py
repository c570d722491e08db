"""Adaptive planning over data streams (Section 7, "Queries over data
streams").

When query evaluation runs over a continuous stream whose distribution
drifts, a plan trained once can decay.  The paper sketches the remedy:
maintain statistics over a sliding window and periodically re-run the
(greedy) planner against them.  :class:`AdaptiveStreamExecutor` implements
that loop:

- tuples are processed with the current plan, costs metered per tuple;
- a sliding window of the most recent tuples is retained;
- every ``replan_interval`` tuples — or earlier, when the observed mean
  cost exceeds the plan's predicted cost by ``drift_threshold`` — the
  planner is re-invoked on the window and the plan swapped in-place.

With ``profile_drift_threshold`` set, the executor additionally keeps a
per-plan :class:`~repro.obs.PlanProfile` and a
:class:`~repro.obs.DriftMonitor` scoring observed branch/pass frequencies
against the plan's Eq. 3 predictions — catching *shape* drift (the
distribution moved but the plan's mean cost barely did) that the
cost-ratio trigger cannot see.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.attributes import Schema
from repro.core.cost import ExecutionObserver, dataset_execution
from repro.core.plan import PlanNode
from repro.core.query import ConjunctiveQuery
from repro.exceptions import FaultConfigError, PlanningError
from repro.planning.base import Planner
from repro.probability.empirical import EmpiricalDistribution

if TYPE_CHECKING:
    from repro.faults.executor import FaultedDatasetExecution
    from repro.faults.model import FaultSchedule
    from repro.faults.policy import FaultPolicy

__all__ = [
    "ReplanEvent",
    "StreamFaultStats",
    "StreamReport",
    "AdaptiveStreamExecutor",
]

# A factory building a planner for a freshly-fitted window distribution.
PlannerFactory = Callable[[EmpiricalDistribution], Planner]


@dataclass(frozen=True)
class ReplanEvent:
    """One plan swap: when it happened and what the new plan promised.

    ``drift_score`` carries the normalized chi-square score that fired a
    ``"profile-drift"`` replan; it is ``None`` for the other reasons.
    """

    position: int
    expected_cost: float
    reason: str  # "interval", "drift", "profile-drift", or "outage"
    drift_score: float | None = None


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
    """

    costs: np.ndarray
    verdicts: np.ndarray
    replans: tuple[ReplanEvent, ...]
    abstained: np.ndarray | None = None
    faults: StreamFaultStats | None = None

    @property
    def mean_cost(self) -> float:
        return float(self.costs.mean()) if self.costs.size else 0.0


class AdaptiveStreamExecutor:
    """Sliding-window replanning executor.

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
        profile machinery entirely.
    profile_check_every:
        Assess drift every this many tuples (scoring walks the whole
        profile, so per-tuple assessment would dominate).
    profile_min_tuples:
        Do not assess until the current plan has profiled at least this
        many tuples (small samples make the chi-square score noisy).
    profile_sink:
        Optional extra :class:`~repro.core.cost.ExecutionObserver` that
        receives every execution event across all plans (on top of the
        internal per-plan profiles).
    fault_schedule:
        When given, the stream runs in windows through
        :class:`~repro.faults.FaultTolerantExecutor`, which replays this
        schedule on row-keyed dice and degrades failed reads per the
        policy, and sustained outages (per the policy's
        ``outage_replan_threshold`` over ``outage_window`` recent tuples)
        become an ``"outage"`` replan trigger.  Requires ``fault_rng``;
        incompatible with ``profile_drift_threshold`` (per-node profiling
        needs the vectorized executor).
    fault_policy:
        Retry/degradation policy for fault-injected runs; defaults to the
        :class:`~repro.faults.FaultPolicy` defaults (retry twice, then
        abstain).
    fault_rng:
        The single seeded generator all fault randomness flows from.
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
        profile_sink: ExecutionObserver | None = None,
        fault_schedule: "FaultSchedule | None" = None,
        fault_policy: "FaultPolicy | None" = None,
        fault_rng: np.random.Generator | None = None,
    ) -> None:
        if window < 2:
            raise PlanningError(f"window must be >= 2, got {window}")
        if replan_interval < 1:
            raise PlanningError(
                f"replan_interval must be >= 1, got {replan_interval}"
            )
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
        self._schema = schema
        self._query = query
        self._factory = planner_factory
        self._window = int(window)
        self._replan_interval = int(replan_interval)
        self._drift_threshold = drift_threshold
        self._smoothing = float(smoothing)
        self._on_replan = on_replan
        self._profile_drift_threshold = profile_drift_threshold
        self._profile_check_every = int(profile_check_every)
        self._profile_min_tuples = int(profile_min_tuples)
        self._profile_sink = profile_sink
        if fault_schedule is not None:
            if fault_rng is None:
                raise FaultConfigError(
                    "fault_schedule requires fault_rng: fault injection is "
                    "deterministic and seeds flow from a single generator"
                )
            if profile_drift_threshold is not None:
                raise FaultConfigError(
                    "profile_drift_threshold is unsupported under fault "
                    "injection (per-node profiling needs the vectorized "
                    "executor); use outage_replan_threshold instead"
                )
            fault_schedule.validated(schema)
        self._fault_schedule = fault_schedule
        self._fault_policy = fault_policy
        self._fault_rng = fault_rng

    def process(self, stream: np.ndarray) -> StreamReport:
        """Run the query over ``stream`` (rows in arrival order)."""
        matrix = np.asarray(stream)
        if matrix.ndim != 2 or matrix.shape[1] != len(self._schema):
            raise PlanningError(
                f"stream shape {matrix.shape} incompatible with schema of "
                f"{len(self._schema)} attributes"
            )
        if self._fault_schedule is not None:
            return self._process_faulted(matrix)
        total = matrix.shape[0]
        costs = np.zeros(total, dtype=np.float64)
        verdicts = np.zeros(total, dtype=bool)
        replans: list[ReplanEvent] = []

        window: deque = deque(maxlen=self._window)
        plan: PlanNode | None = None
        predicted = 0.0
        since_replan = 0
        cost_since_replan = 0.0
        profile: "PlanProfile | None" = None
        monitor: "DriftMonitor | None" = None
        observer: ExecutionObserver | None = self._profile_sink

        def swap_plan() -> None:
            nonlocal plan, predicted, profile, monitor, observer
            plan, predicted, distribution = self._replan(window)
            if self._profile_drift_threshold is not None:
                from repro.obs.drift import DriftMonitor
                from repro.obs.profile import PlanProfile, TeeSink

                profile = PlanProfile(self._schema)
                monitor = DriftMonitor(
                    plan,
                    distribution,
                    expected=predicted,
                    threshold=self._profile_drift_threshold,
                )
                observer = (
                    profile
                    if self._profile_sink is None
                    else TeeSink(profile, self._profile_sink)
                )

        # Bootstrap: collect an initial window before the first plan.
        warmup = min(self._window, self._replan_interval, total)
        for position in range(total):
            row = matrix[position]
            if plan is None:
                # During warm-up, acquire every query attribute (the
                # plan-less baseline) and record statistics.
                cost = sum(
                    self._schema[index].cost
                    for index in self._query.attribute_indices
                )
                costs[position] = cost
                verdicts[position] = self._query.evaluate(row)
                window.append(row)
                if position + 1 >= warmup:
                    swap_plan()
                    self._record(
                        replans, ReplanEvent(position + 1, predicted, "interval")
                    )
                    since_replan = 0
                    cost_since_replan = 0.0
                continue

            outcome = dataset_execution(
                plan, row[None, :], self._schema, observer=observer
            )
            costs[position] = outcome.costs[0]
            verdicts[position] = outcome.verdicts[0]
            window.append(row)
            since_replan += 1
            cost_since_replan += float(outcome.costs[0])

            drifted = (
                self._drift_threshold is not None
                and since_replan >= 50  # need a stable estimate first
                and predicted > 0.0
                and cost_since_replan / since_replan
                > self._drift_threshold * predicted
            )
            profile_score: float | None = None
            if (
                not drifted
                and monitor is not None
                and profile is not None
                and since_replan % self._profile_check_every == 0
                and profile.tuples >= self._profile_min_tuples
            ):
                assessment = monitor.assess(profile)
                if assessment.drifted:
                    profile_score = assessment.normalized
            if (
                since_replan >= self._replan_interval
                or drifted
                or profile_score is not None
            ):
                if drifted:
                    reason = "drift"
                elif profile_score is not None:
                    reason = "profile-drift"
                else:
                    reason = "interval"
                swap_plan()
                self._record(
                    replans,
                    ReplanEvent(
                        position + 1,
                        predicted,
                        reason,
                        drift_score=profile_score,
                    ),
                )
                since_replan = 0
                cost_since_replan = 0.0

        return StreamReport(
            costs=costs, verdicts=verdicts, replans=tuple(replans)
        )

    def _record(
        self, replans: list[ReplanEvent], event: ReplanEvent
    ) -> None:
        replans.append(event)
        if self._on_replan is not None:
            self._on_replan(event)

    def _replan(
        self, window: "deque | np.ndarray"
    ) -> tuple[PlanNode, float, EmpiricalDistribution]:
        snapshot = np.asarray(window, dtype=np.int64)
        distribution = EmpiricalDistribution(
            self._schema, snapshot, smoothing=self._smoothing
        )
        planner = self._factory(distribution)
        result = planner.plan(self._query)
        return result.plan, result.expected_cost, distribution

    def _process_faulted(self, matrix: np.ndarray) -> StreamReport:
        """The fault-injected twin of :meth:`process`, run in windows.

        One :class:`~repro.faults.state.FaultState` carries through the
        whole stream (outages span tuples, budgets deplete run-wide).
        Each window runs the current plan through
        :class:`~repro.faults.FaultTolerantExecutor` — rebuilt at each
        replan so IMPUTE marginals track the window distribution — from
        just after one replan up to the next interval replan.  The drift
        and outage triggers are then evaluated for every row of the
        window at once; when one fires early, the window is cut there
        and its kept prefix re-run from the window's starting state.
        Sustained outages — a fraction of recent tuples with at least
        one failed acquisition at or above the policy's threshold —
        trigger an ``"outage"`` replan.
        """
        from repro.faults.executor import FaultTolerantExecutor, query_read_plan
        from repro.faults.policy import FaultPolicy
        from repro.faults.state import FaultState

        assert self._fault_schedule is not None
        assert self._fault_rng is not None
        policy = (
            self._fault_policy if self._fault_policy is not None else FaultPolicy()
        )
        total = matrix.shape[0]
        costs = np.zeros(total, dtype=np.float64)
        verdicts = np.zeros(total, dtype=bool)
        abstained = np.zeros(total, dtype=bool)
        fails = np.zeros(total, dtype=bool)
        replans: list[ReplanEvent] = []
        state = FaultState.fresh(self._fault_schedule, self._fault_rng)
        executor = FaultTolerantExecutor(self._schema, policy, query=self._query)
        tuples_degraded = 0

        def keep(window: "FaultedDatasetExecution", start: int) -> None:
            nonlocal tuples_degraded
            end = start + window.rows
            costs[start:end] = window.costs
            verdicts[start:end] = window.verdicts
            abstained[start:end] = window.abstains
            fails[start:end] = window.failed.any(axis=1)
            tuples_degraded += int(np.count_nonzero(window.degraded))

        def replan(position: int, reason: str) -> tuple[PlanNode, float]:
            nonlocal executor
            plan, predicted, distribution = self._replan(
                matrix[max(0, position - self._window) : position]
            )
            executor = FaultTolerantExecutor(
                self._schema, policy, query=self._query, distribution=distribution
            )
            self._record(replans, ReplanEvent(position, predicted, reason))
            return plan, predicted

        # Warm-up: the plan-less read of every query attribute.
        warmup = min(self._window, self._replan_interval, total)
        if warmup:
            window = executor.run(
                query_read_plan(self._query),
                matrix[:warmup],
                state=state,
                read_all=True,
            )
            keep(window, 0)
            state = window.state
            plan, predicted = replan(warmup, "interval")
        threshold = policy.outage_replan_threshold
        span = policy.outage_window
        outage_start = 0  # the outage window forgets tuples before this
        position = warmup
        while position < total:
            end = min(total, position + self._replan_interval)
            window = executor.run(
                plan, matrix[position:end], state=state, first_row=position
            )
            fails[position:end] = window.failed.any(axis=1)
            since = np.arange(1, window.rows + 1)
            interval = since >= self._replan_interval
            drifted = np.zeros(window.rows, dtype=bool)
            if self._drift_threshold is not None and predicted > 0.0:
                drifted = (since >= 50) & (
                    np.cumsum(window.costs) / since
                    > self._drift_threshold * predicted
                )
            outage = np.zeros(window.rows, dtype=bool)
            if threshold is not None:
                low = max(outage_start, position - span)
                counts = np.concatenate(([0], np.cumsum(fails[low:end])))
                after = np.arange(position, end) + 1
                full = after - outage_start >= span
                failing = counts[after - low] - counts[np.maximum(after - span - low, 0)]
                outage = full & (failing / span >= threshold)
            fired = interval | drifted | outage
            if not fired.any():
                keep(window, position)
                state = window.state
                break
            cut = int(np.argmax(fired))
            if cut + 1 < window.rows:
                window = executor.run(
                    plan,
                    matrix[position : position + cut + 1],
                    state=state,
                    first_row=position,
                )
            keep(window, position)
            state = window.state
            position += cut + 1
            if outage[cut]:
                reason = "outage"
                outage_start = position
            elif drifted[cut]:
                reason = "drift"
            else:
                reason = "interval"
            plan, predicted = replan(position, reason)

        stats = StreamFaultStats(
            acquisitions_failed=state.acquisitions_failed,
            retries_total=state.retries_total,
            tuples_degraded=tuples_degraded,
            tuples_abstained=int(abstained.sum()),
            corruptions=state.corrupted,
            retry_cost=state.retry_cost,
        )
        return StreamReport(
            costs=costs,
            verdicts=verdicts,
            replans=tuple(replans),
            abstained=abstained,
            faults=stats,
        )
