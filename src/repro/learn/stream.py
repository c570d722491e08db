"""`LearnedStreamExecutor`: the bandit fused with the drift loop.

This is the replacement for the adaptive executor's "chi-square fired →
refit → replan from scratch" reflex.  The stream drives an
:class:`~repro.learn.bandit.OrderBanditEnsemble`:

- every post-warmup tuple routes through the conditioning skeleton to a
  branch; normally the branch's *incumbent* order runs and its realized
  leaf cost feeds straight back as the arm's reward (and into the
  branch's change detector);
- when the detector flags the incumbent's cost drifting, the branch
  opens an exploration *burst*: tuples become value-blind
  full-information pulls — every branch attribute is acquired, then
  every arm is replayed on the complete row (``_full_pull``).  The
  sliding statistics window already retains complete rows for refits,
  so this is the same information contract the chi-square baseline
  uses; the difference is the bandit pays for it explicitly, per pull,
  through the regret ledger's exploration side;
- plan changes are *incremental order swaps*, taken only when the PAO
  confidence bounds on the burst's paired differences warrant them, and
  each branch *commits* and stops exploring once no order can beat its
  incumbent at the confidence level;
- the chi-square :class:`~repro.obs.DriftMonitor` still watches the
  served composite plan, but firing it no longer discards anything: the
  window statistics are refitted and the ensemble is *warm-started* —
  old posteriors are discount-blended into the new priors, so evidence
  survives the drift (and the monitor's debounce keeps one crossing
  from firing a refit storm);
- every unit of acquisition cost lands in the shared
  :class:`~repro.learn.ledger.RegretLedger`, whose exploration side is
  hard-capped by the regret budget.

Fault-injected runs share the adaptive executor's machinery (one fault
state carried through the whole stream, windowed fault-tolerant
execution, outage-triggered refits) with the arm reward being the
*faulted* realized cost — retries included — so the ledger's
conservation invariant holds under storms too.  Arm decisions stay per
tuple; only the execution is windowed.  Branch routing needs the
metered scalar walker, so fault-injected learning runs flat (no
conditioning skeleton), mirroring the adaptive executor's
profile-drift restriction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.core.attributes import Schema
from repro.core.plan import PlanNode, SequentialNode, VerdictLeaf
from repro.core.query import ConjunctiveQuery
from repro.exceptions import FaultConfigError, LearningError, PlanningError
from repro.execution.streaming import StreamFaultStats
from repro.learn.arms import DEFAULT_MAX_ARM_PREDICATES
from repro.learn.bandit import (
    BranchBandit,
    LearnedProvenance,
    OrderBanditEnsemble,
)
from repro.learn.ledger import LedgerSnapshot, RegretLedger
from repro.learn.planner import SkeletonFactory, default_regret_budget
from repro.learn.state import BanditStateStore
from repro.obs.drift import DEFAULT_DRIFT_THRESHOLD
from repro.probability.empirical import EmpiricalDistribution

if TYPE_CHECKING:
    from repro.faults.model import FaultSchedule
    from repro.faults.policy import FaultPolicy
    from repro.obs.drift import DriftMonitor
    from repro.obs.profile import PlanProfile

__all__ = [
    "LearnedReplanEvent",
    "LearnedStreamReport",
    "LearnedStreamExecutor",
]


@dataclass(frozen=True)
class LearnedReplanEvent:
    """One plan-affecting decision: what, where, and what it promised.

    ``reason`` is ``"warmup"`` (first statistics fit), ``"order-swap"``
    (a branch's incumbent was dethroned), ``"commit"`` (a branch froze
    its incumbent), ``"drift-refit"`` (chi-square fired; warm-started
    refit), or ``"outage"`` (sustained acquisition failures; refit).
    ``warm`` says whether learned posteriors survived into the new
    ensemble (False when the refitted skeleton changed shape).
    """

    position: int
    reason: str
    branch: str
    arm: int
    expected_cost: float
    drift_score: float | None = None
    warm: bool = True
    budget_remaining: float = 0.0


@dataclass(frozen=True)
class LearnedStreamReport:
    """Outcome of a learned streaming run.

    ``pulls[i]`` is the arm id pulled for tuple ``i`` within its branch
    (-1 during warmup) — together with ``replans`` it is the full,
    byte-comparable decision trace the replay tests pin down.  ``plan``
    is the final served composite plan; with ``provenance`` it is the
    pair the verifier's ``LRN`` rules audit.
    """

    costs: np.ndarray
    verdicts: np.ndarray
    pulls: np.ndarray
    replans: tuple[LearnedReplanEvent, ...]
    ledger: LedgerSnapshot
    provenance: LearnedProvenance
    plan: PlanNode
    committed: bool
    abstained: np.ndarray | None = None
    faults: StreamFaultStats | None = None

    @property
    def mean_cost(self) -> float:
        return float(self.costs.mean()) if self.costs.size else 0.0

    @property
    def total_cost(self) -> float:
        return float(self.costs.sum())

    def ledger_gap(self) -> float:
        """Absolute mismatch between metered costs and the ledger sides."""
        return self.ledger.gap(self.total_cost)

    def ledger_conserved(self, tolerance: float = 1e-6) -> bool:
        return self.ledger.conserved(self.total_cost, tolerance)

    def exploration_within_budget(self) -> bool:
        return self.ledger.exploration_cost <= self.ledger.budget

    def as_dict(self) -> dict[str, Any]:
        return {
            "tuples": int(self.costs.size),
            "total_cost": round(self.total_cost, 6),
            "mean_cost": round(self.mean_cost, 6),
            "selected": int(self.verdicts.sum()),
            "replans": len(self.replans),
            "committed": self.committed,
            "ledger": self.ledger.as_dict(),
        }


class LearnedStreamExecutor:
    """Bandit-driven streaming executor with warm-started drift refits.

    Parameters mirror :class:`~repro.execution.AdaptiveStreamExecutor`
    where they overlap; the learning-specific knobs:

    regret_budget:
        Hard cap on exploration spend (Eq. 3 units); ``None`` derives
        the per-query default (64 worst-case pulls).
    skeleton_planner:
        Factory for the conditioning-skeleton planner rebuilt at every
        statistics fit; ``None`` runs flat (orders over the full query).
    posterior_decay:
        D-UCB discount — 1.0 for convergent stationary behavior, < 1 to
        track non-stationary streams between refits.
    drift_threshold:
        Normalized chi-square trigger for warm-started refits (``None``
        disables the monitor entirely).
    warm_discount:
        Weight surviving posteriors keep across a refit or adoption.
    state_store / state_key / version_provider:
        Optional :class:`~repro.learn.BanditStateStore` integration: the
        final and per-refit ensemble states are stored under
        ``(state_key, version)`` and the warmup fit adopts the latest
        stored state — this is how bandit evidence survives the serving
        layer's statistics-version cache bumps.
    """

    def __init__(
        self,
        schema: Schema,
        query: ConjunctiveQuery,
        *,
        regret_budget: float | None = None,
        window: int = 256,
        warmup: int = 64,
        smoothing: float = 0.5,
        delta: float = 0.05,
        burst_pulls: int = 12,
        posterior_decay: float = 1.0,
        max_arm_predicates: int = DEFAULT_MAX_ARM_PREDICATES,
        skeleton_planner: SkeletonFactory | None = None,
        drift_threshold: float | None = DEFAULT_DRIFT_THRESHOLD,
        drift_check_every: int = 64,
        drift_min_tuples: int = 128,
        warm_discount: float = 0.25,
        prior_weight: float = 1.0,
        on_replan: Callable[[LearnedReplanEvent], None] | None = None,
        state_store: BanditStateStore | None = None,
        state_key: str | None = None,
        version_provider: Callable[[], int] | None = None,
        fault_schedule: "FaultSchedule | None" = None,
        fault_policy: "FaultPolicy | None" = None,
        fault_rng: np.random.Generator | None = None,
    ) -> None:
        if window < 1:
            raise LearningError(f"window must be >= 1: {window}")
        if warmup < 1:
            raise LearningError(f"warmup must be >= 1: {warmup}")
        if smoothing < 0.0:
            raise LearningError(f"smoothing must be >= 0: {smoothing}")
        if regret_budget is not None and regret_budget < 0.0:
            raise LearningError(
                f"regret_budget must be non-negative: {regret_budget}"
            )
        if drift_check_every < 1 or drift_min_tuples < 1:
            raise LearningError(
                "drift_check_every and drift_min_tuples must be >= 1"
            )
        if not 0.0 < warm_discount <= 1.0:
            raise LearningError(
                f"warm_discount must be in (0, 1]: {warm_discount}"
            )
        if fault_schedule is not None and fault_rng is None:
            raise FaultConfigError(
                "fault_schedule requires fault_rng: pass the run's single "
                "seeded generator"
            )
        if fault_schedule is not None and skeleton_planner is not None:
            raise FaultConfigError(
                "fault-injected learning runs flat: branch routing needs "
                "the metered scalar walker, which the fault-tolerant "
                "executor replaces — drop skeleton_planner"
            )
        if state_store is not None and state_key is None:
            raise LearningError("state_store requires state_key")
        self._schema = schema
        self._query = query
        self._regret_budget = regret_budget
        self._window = window
        self._warmup = warmup
        self._smoothing = smoothing
        self._delta = delta
        self._burst_pulls = burst_pulls
        self._posterior_decay = posterior_decay
        self._max_arm_predicates = max_arm_predicates
        self._skeleton_planner = skeleton_planner
        self._drift_threshold = drift_threshold
        self._drift_check_every = drift_check_every
        self._drift_min_tuples = drift_min_tuples
        self._warm_discount = warm_discount
        self._prior_weight = prior_weight
        self._on_replan = on_replan
        self._state_store = state_store
        self._state_key = state_key
        self._version_provider = version_provider
        self._refit_count = 0
        self._fault_schedule = fault_schedule
        self._fault_policy = fault_policy
        self._fault_rng = fault_rng
        self._warmup_charges = tuple(
            (index, float(schema[index].cost))
            for index in query.attribute_indices
        )

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------

    def _budget(self) -> float:
        if self._regret_budget is not None:
            return self._regret_budget
        return default_regret_budget(self._schema, self._query)

    def _version(self) -> int:
        if self._version_provider is not None:
            return self._version_provider()
        return self._refit_count

    def _store_state(self, ensemble: OrderBanditEnsemble) -> None:
        if self._state_store is not None and self._state_key is not None:
            self._state_store.put(
                self._state_key, self._version(), ensemble.export_state()
            )

    def _fit_distribution(self, window: deque) -> EmpiricalDistribution:
        return EmpiricalDistribution(
            self._schema, np.asarray(window), smoothing=self._smoothing
        )

    def _build_ensemble(
        self,
        distribution: EmpiricalDistribution,
        ledger: RegretLedger,
        span_inflation: float,
    ) -> OrderBanditEnsemble:
        skeleton = (
            self._skeleton_planner(distribution).plan(self._query).plan
            if self._skeleton_planner is not None
            else None
        )
        return OrderBanditEnsemble(
            self._schema,
            self._query,
            distribution,
            budget=self._budget(),
            skeleton=skeleton,
            delta=self._delta,
            burst_pulls=self._burst_pulls,
            decay=self._posterior_decay,
            max_arm_predicates=self._max_arm_predicates,
            span_inflation=span_inflation,
            prior_weight=self._prior_weight,
            ledger=ledger,
        )

    def _emit(
        self, replans: list[LearnedReplanEvent], event: LearnedReplanEvent
    ) -> None:
        replans.append(event)
        if self._on_replan is not None:
            self._on_replan(event)

    def _monitoring(self) -> bool:
        return self._drift_threshold is not None

    def _fresh_monitor(
        self,
        ensemble: OrderBanditEnsemble,
        distribution: EmpiricalDistribution,
    ) -> "tuple[PlanProfile, DriftMonitor] | tuple[None, None]":
        if not self._monitoring():
            return None, None
        from repro.obs.drift import DriftMonitor
        from repro.obs.profile import PlanProfile

        assert self._drift_threshold is not None
        return (
            PlanProfile(self._schema),
            DriftMonitor(
                ensemble.composite_plan(),
                distribution,
                threshold=self._drift_threshold,
            ),
        )

    # ------------------------------------------------------------------
    # The plain (fault-free) loop
    # ------------------------------------------------------------------

    def process(self, stream: np.ndarray) -> LearnedStreamReport:
        """Run the query over ``stream`` (rows in arrival order)."""
        matrix = np.asarray(stream)
        if matrix.ndim != 2 or matrix.shape[1] != len(self._schema):
            raise PlanningError(
                f"stream shape {matrix.shape} incompatible with schema of "
                f"{len(self._schema)} attributes"
            )
        if matrix.shape[0] == 0:
            raise LearningError("cannot learn over an empty stream")
        if self._fault_schedule is not None:
            return self._process_faulted(matrix)

        total = matrix.shape[0]
        costs = np.zeros(total, dtype=np.float64)
        verdicts = np.zeros(total, dtype=bool)
        pulls = np.full(total, -1, dtype=np.int64)
        replans: list[LearnedReplanEvent] = []
        window: deque = deque(maxlen=self._window)
        ledger = RegretLedger(self._budget())
        warmup_cost = sum(cost for _, cost in self._warmup_charges)

        ensemble: OrderBanditEnsemble | None = None
        distribution: EmpiricalDistribution | None = None
        profile: "PlanProfile | None" = None
        monitor: "DriftMonitor | None" = None
        since_drift_check = 0

        warmup = min(self._warmup, total)
        for position in range(total):
            row = matrix[position]
            if ensemble is None:
                ledger.charge_warmup(warmup_cost)
                costs[position] = warmup_cost
                verdicts[position] = self._query.evaluate(row)
                window.append(row)
                if position + 1 >= warmup:
                    distribution = self._fit_distribution(window)
                    ensemble = self._build_ensemble(distribution, ledger, 1.0)
                    warm = self._adopt_stored(ensemble)
                    profile, monitor = self._fresh_monitor(
                        ensemble, distribution
                    )
                    self._store_state(ensemble)
                    self._emit(
                        replans,
                        LearnedReplanEvent(
                            position=position + 1,
                            reason="warmup",
                            branch="root",
                            arm=-1,
                            expected_cost=ensemble.expected_cost(distribution),
                            warm=warm,
                            budget_remaining=ledger.budget_remaining,
                        ),
                    )
                continue

            assert distribution is not None
            cost, verdict, branch, arm_id, exploring = self._execute_tuple(
                row, ensemble, ledger, profile
            )
            costs[position] = cost
            verdicts[position] = verdict
            pulls[position] = arm_id
            window.append(row)

            changed = self._post_pull(
                position, branch, ensemble, distribution, ledger, replans
            )
            if changed and self._monitoring():
                profile, monitor = self._fresh_monitor(ensemble, distribution)
                since_drift_check = 0

            if monitor is not None and profile is not None:
                since_drift_check += 1
                if (
                    since_drift_check >= self._drift_check_every
                    and profile.tuples >= self._drift_min_tuples
                ):
                    since_drift_check = 0
                    report = monitor.assess(profile)
                    if report.drifted:
                        distribution = self._fit_distribution(window)
                        ensemble, warm = self._refit(ensemble, distribution, ledger, 1.0)
                        profile, monitor = self._fresh_monitor(
                            ensemble, distribution
                        )
                        self._store_state(ensemble)
                        self._emit(
                            replans,
                            LearnedReplanEvent(
                                position=position + 1,
                                reason="drift-refit",
                                branch="root",
                                arm=-1,
                                expected_cost=ensemble.expected_cost(
                                    distribution
                                ),
                                drift_score=report.normalized,
                                warm=warm,
                                budget_remaining=ledger.budget_remaining,
                            ),
                        )

        assert ensemble is not None
        self._store_state(ensemble)
        return LearnedStreamReport(
            costs=costs,
            verdicts=verdicts,
            pulls=pulls,
            replans=tuple(replans),
            ledger=ledger.snapshot(),
            provenance=ensemble.provenance(float(costs.sum())),
            plan=ensemble.composite_plan(),
            committed=ensemble.committed,
        )

    def _adopt_stored(self, ensemble: OrderBanditEnsemble) -> bool:
        if self._state_store is None or self._state_key is None:
            return False
        stored = self._state_store.latest(self._state_key)
        if stored is None:
            return False
        return ensemble.adopt(stored[1], self._warm_discount)

    def _refit(
        self,
        old: OrderBanditEnsemble,
        distribution: EmpiricalDistribution,
        ledger: RegretLedger,
        span_inflation: float,
    ) -> tuple[OrderBanditEnsemble, bool]:
        """New ensemble on fresh statistics, warm-started when shapes match."""
        self._refit_count += 1
        ensemble = self._build_ensemble(distribution, ledger, span_inflation)
        warm = ensemble.adopt(old.export_state(), self._warm_discount)
        return ensemble, warm

    def _execute_tuple(
        self,
        row: np.ndarray,
        ensemble: OrderBanditEnsemble,
        ledger: RegretLedger,
        profile: "PlanProfile | None",
    ) -> tuple[float, bool, BranchBandit, int, bool]:
        """Route, pull, meter, and (for served tuples) profile one row."""
        acquired: set[int] = set()
        branch, visits, conditioning_cost = ensemble.route(row, acquired)
        routed = frozenset(acquired)
        ledger.charge_conditioning(conditioning_cost)

        if branch.wants_full_pull():
            leaf_cost, verdict = self._full_pull(
                row, ensemble, branch, acquired, routed
            )
            return (
                conditioning_cost + leaf_cost,
                verdict,
                branch,
                branch.served,
                True,
            )

        arm_id = branch.select()
        plan = branch.arm_space[arm_id].plan

        leaf_cost = 0.0
        step_trace: list[tuple[int, bool, bool]] = []
        if isinstance(plan, SequentialNode):
            verdict = True
            for step_index, step in enumerate(plan.steps):
                index = step.attribute_index
                newly = index not in acquired
                if newly:
                    acquired.add(index)
                    leaf_cost += ensemble.attribute_cost(index, acquired)
                passed = step.predicate.satisfied_by(int(row[index]))
                step_trace.append((step_index, passed, newly))
                if not passed:
                    verdict = False
                    break
        elif isinstance(plan, VerdictLeaf):
            verdict = plan.verdict
        else:  # pragma: no cover - arm plans are sequential or verdict
            raise LearningError(f"unexpected arm plan {type(plan).__name__}")

        branch.record(
            arm_id,
            leaf_cost,
            tuple(passed for _, passed, _ in step_trace),
        )

        if profile is not None:
            for visit in visits:
                profile.on_condition(
                    visit.path,
                    visit.node,
                    1,
                    1 if visit.below else 0,
                    visit.acquired,
                )
            if isinstance(plan, SequentialNode):
                profile.on_sequential(branch.path, plan, 1)
                for step_index, passed, newly in step_trace:
                    profile.on_step(
                        branch.path,
                        plan,
                        step_index,
                        1,
                        1 if passed else 0,
                        newly,
                    )
            else:
                profile.on_verdict(branch.path, plan, 1)

        return conditioning_cost + leaf_cost, verdict, branch, arm_id, False

    def _full_pull(
        self,
        row: np.ndarray,
        ensemble: OrderBanditEnsemble,
        branch: BranchBandit,
        acquired: set[int],
        routed: frozenset[int],
    ) -> tuple[float, bool]:
        """One value-blind full-information exploration pull.

        Acquires every branch attribute (no short-circuiting), then
        replays each arm's order on the completed row.  Because the
        decision to burst was made before any of this tuple's values
        were seen, the replayed cost vector is an unbiased sample for
        every arm at once — replaying only tuples the served walk
        happened to read fully would condition the sample on the
        incumbent's predicates passing, making the incumbent look
        maximally expensive on its own evidence (measured swap thrash).
        The excess of the full read over the incumbent's replay cost is
        exploration spend, booked by
        :meth:`~repro.learn.bandit.BranchBandit.record_full`.
        """
        plan = branch.served_arm.plan
        if not isinstance(plan, SequentialNode):  # pragma: no cover
            raise LearningError(
                f"full pull on non-sequential arm {type(plan).__name__}"
            )
        values: dict[int, int] = {}
        verdict = True
        leaf_cost = 0.0
        for step in plan.steps:
            index = step.attribute_index
            if index not in acquired:
                acquired.add(index)
                leaf_cost += ensemble.attribute_cost(index, acquired)
            value = int(row[index])
            values[index] = value
            if not step.predicate.satisfied_by(value):
                verdict = False
        branch.record_full(
            leaf_cost, self._replay_costs(ensemble, branch, values, routed)
        )
        return leaf_cost, verdict

    def _replay_costs(
        self,
        ensemble: OrderBanditEnsemble,
        branch: BranchBandit,
        values: dict[int, int],
        routed: frozenset[int],
    ) -> list[float]:
        """Counterfactual clean cost of every arm on one complete row.

        Replays start from the routed (conditioning) read set — those
        reads are shared context, not part of any arm's cost — and
        short-circuit exactly as a real walk would.
        """
        costs: list[float] = []
        for arm in branch.arm_space.arms:
            replay_acquired = set(routed)
            cost = 0.0
            for step in arm.plan.steps:
                index = step.attribute_index
                if index not in replay_acquired:
                    replay_acquired.add(index)
                    cost += ensemble.attribute_cost(index, replay_acquired)
                if not step.predicate.satisfied_by(values[index]):
                    break
            costs.append(cost)
        return costs

    def _post_pull(
        self,
        position: int,
        branch: BranchBandit,
        ensemble: OrderBanditEnsemble,
        distribution: EmpiricalDistribution,
        ledger: RegretLedger,
        replans: list[LearnedReplanEvent],
    ) -> bool:
        """PAO swap/commit checks after a pull; True if the plan changed."""
        swapped = branch.maybe_swap()
        if swapped is not None:
            self._emit(
                replans,
                LearnedReplanEvent(
                    position=position + 1,
                    reason="order-swap",
                    branch=branch.path,
                    arm=swapped,
                    expected_cost=ensemble.expected_cost(distribution),
                    budget_remaining=ledger.budget_remaining,
                ),
            )
            return True
        if branch.check_commit():
            self._emit(
                replans,
                LearnedReplanEvent(
                    position=position + 1,
                    reason="commit",
                    branch=branch.path,
                    arm=branch.served,
                    expected_cost=ensemble.expected_cost(distribution),
                    budget_remaining=ledger.budget_remaining,
                ),
            )
        return False

    # ------------------------------------------------------------------
    # The fault-injected twin
    # ------------------------------------------------------------------

    def _process_faulted(self, matrix: np.ndarray) -> LearnedStreamReport:
        """Flat bandit learning over windowed fault-tolerant execution.

        One :class:`~repro.faults.state.FaultState` carries through the
        whole stream; rewards are the *faulted* realized costs (retries
        included), and the explore gate's span is inflated by the
        worst-case retry blow-up so the regret budget stays sound under
        storms.  Sustained outages trigger warm-started refits, mirroring
        the adaptive executor.

        Arm decisions stay per tuple: ``wants_full_pull``/``select``,
        ``record`` and the swap/commit checks run for every tuple in
        order.  Only the execution is windowed: the current decision (a
        served pull of the incumbent, or a full-information pull) runs
        speculatively over a window, and the window is cut at the first
        tuple whose decision differs, or after a tuple that swaps,
        commits or trips the outage trigger.  The kept prefix is re-run
        from the window's starting state; the rows after the cut run
        again under the next decision on the same row-keyed dice.
        """
        from repro.faults.executor import FaultTolerantExecutor, query_read_plan
        from repro.faults.policy import FaultPolicy
        from repro.faults.state import FaultState

        assert self._fault_schedule is not None
        assert self._fault_rng is not None
        policy = (
            self._fault_policy if self._fault_policy is not None else FaultPolicy()
        )
        retry = policy.retry
        # One acquire may charge the base read plus max_retries backoffs,
        # and a degraded tuple may re-attempt the attribute once more on
        # the skip/confirm path: bound a pull by twice the retry blow-up.
        retry_factor = 1.0 + sum(
            retry.backoff_base**exponent for exponent in range(retry.max_retries)
        )
        span_inflation = 2.0 * retry_factor

        total = matrix.shape[0]
        costs = np.zeros(total, dtype=np.float64)
        verdicts = np.zeros(total, dtype=bool)
        abstained = np.zeros(total, dtype=bool)
        fails = [False] * total  # tuples with a read that stayed unavailable
        pulls = np.full(total, -1, dtype=np.int64)
        replans: list[LearnedReplanEvent] = []
        ledger = RegretLedger(self._budget())
        state = FaultState.fresh(self._fault_schedule, self._fault_rng)
        tuples_degraded = 0

        def refit(
            position: int, reason: str, old: OrderBanditEnsemble | None
        ) -> tuple[
            OrderBanditEnsemble, EmpiricalDistribution, FaultTolerantExecutor
        ]:
            rows = matrix[max(0, position - self._window) : position]
            distribution = self._fit_distribution(rows)
            if old is None:
                ensemble = self._build_ensemble(distribution, ledger, span_inflation)
                warm = self._adopt_stored(ensemble)
            else:
                ensemble, warm = self._refit(
                    old, distribution, ledger, span_inflation
                )
            executor = FaultTolerantExecutor(
                self._schema, policy, query=self._query, distribution=distribution
            )
            self._store_state(ensemble)
            self._emit(
                replans,
                LearnedReplanEvent(
                    position=position,
                    reason=reason,
                    branch="root",
                    arm=-1,
                    expected_cost=ensemble.expected_cost(distribution),
                    warm=warm,
                    budget_remaining=ledger.budget_remaining,
                ),
            )
            return ensemble, distribution, executor

        # Warm-up: the plan-less read of every query attribute.
        warmup = min(self._warmup, total)
        executor = FaultTolerantExecutor(self._schema, policy, query=self._query)
        window = executor.run(
            query_read_plan(self._query), matrix[:warmup], state=state, read_all=True
        )
        state = window.state
        for cost in window.costs.tolist():
            ledger.charge_warmup(cost)
        costs[:warmup] = window.costs
        verdicts[:warmup] = window.verdicts
        abstained[:warmup] = window.abstains
        fails[:warmup] = window.failed.any(axis=1).tolist()
        tuples_degraded += int(np.count_nonzero(window.degraded))
        ensemble, distribution, executor = refit(warmup, "warmup", None)

        threshold = policy.outage_replan_threshold
        outage_window = policy.outage_window
        outage_start = 0  # the outage window forgets tuples before this
        failing = sum(fails[max(0, warmup - outage_window) : warmup])
        position = warmup
        decision: tuple[bool, int] | None = None
        while position < total:
            branch = ensemble.branches[0]
            if decision is None:
                full = branch.wants_full_pull()
                decision = (full, branch.served if full else branch.select())
            full, arm_id = decision
            plan = branch.arm_space[arm_id].plan
            # A burst's pulls change the incumbent's evidence every tuple;
            # a served run usually lasts to the end of the stream.
            end = min(total, position + max(1, self._burst_pulls)) if full else total
            runner = executor
            window = runner.run(
                plan,
                matrix[position:end],
                state=state,
                first_row=position,
                read_all=full,
            )
            fails[position:end] = window.failed.any(axis=1).tolist()
            window_costs = window.costs.tolist()
            kept = 0
            for offset, cost in enumerate(window_costs):
                here = position + offset
                if offset:
                    wants = branch.wants_full_pull()
                    decision = (wants, branch.served if wants else branch.select())
                    if decision != (full, arm_id):
                        break
                if not full:
                    branch.record(arm_id, cost)
                    pulls[here] = arm_id
                elif fails[here]:
                    branch.record_full_failure(cost)
                    pulls[here] = branch.served
                else:
                    values = {
                        step.attribute_index: int(
                            window.observed[offset, step.attribute_index]
                        )
                        for step in plan.steps
                    }
                    branch.record_full(
                        cost,
                        self._replay_costs(ensemble, branch, values, frozenset()),
                    )
                    pulls[here] = branch.served
                kept = offset + 1
                decision = None

                events = len(replans)
                self._post_pull(
                    here, branch, ensemble, distribution, ledger, replans
                )
                failing += fails[here]
                if here - outage_window >= outage_start:
                    failing -= fails[here - outage_window]
                if (
                    threshold is not None
                    and here + 1 - outage_start >= outage_window
                    and failing / outage_window >= threshold
                ):
                    ensemble, distribution, executor = refit(
                        here + 1, "outage", ensemble
                    )
                    outage_start = here + 1
                    failing = 0
                if len(replans) != events:
                    break
            if kept < window.rows:
                window = runner.run(
                    plan,
                    matrix[position : position + kept],
                    state=state,
                    first_row=position,
                    read_all=full,
                )
            state = window.state
            stop = position + kept
            costs[position:stop] = window.costs
            verdicts[position:stop] = window.verdicts
            abstained[position:stop] = window.abstains
            tuples_degraded += int(np.count_nonzero(window.degraded))
            position = stop

        self._store_state(ensemble)
        stats = StreamFaultStats(
            acquisitions_failed=state.acquisitions_failed,
            retries_total=state.retries_total,
            tuples_degraded=tuples_degraded,
            tuples_abstained=int(abstained.sum()),
            corruptions=state.corrupted,
            retry_cost=state.retry_cost,
        )
        return LearnedStreamReport(
            costs=costs,
            verdicts=verdicts,
            pulls=pulls,
            replans=tuple(replans),
            ledger=ledger.snapshot(),
            provenance=ensemble.provenance(float(costs.sum())),
            plan=ensemble.composite_plan(),
            committed=ensemble.committed,
            abstained=abstained,
            faults=stats,
        )
