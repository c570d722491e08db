"""`LearnedStreamExecutor`: the bandit ordering policy over the stream loop.

This is the replacement for the adaptive executor's "chi-square fired →
refit → replan from scratch" reflex.  The stream runs through the one
:class:`~repro.execution.streaming.StreamLoop` (warm-up read, sliding
window refits, fault composition, outage trigger, report assembly); this
module only decides what runs next, driving an
:class:`~repro.learn.bandit.OrderBanditEnsemble`:

- every post-warmup tuple routes through the conditioning skeleton to a
  branch; normally the branch's *incumbent* order runs and its realized
  leaf cost feeds straight back as the arm's reward (and into the
  branch's change detector);
- when the detector flags the incumbent's cost drifting, the branch
  opens an exploration *burst* of value-blind full-information pulls
  (``_full_pull``), each paid for explicitly through the regret
  ledger's exploration side;
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

Fault-free, each tuple is the policy's row step: route through the
skeleton, then a metered scalar walk.  Under fault injection the loop
runs the current decision speculatively over a window and the policy
cuts it where a decision may change.  A served decision holds until the
window's first outage row, so that run is booked in one bandit update;
burst pulls are booked tuple by tuple.  The reward is the *faulted*
realized cost, retries included, so the ledger conserves under storms
too.  Faulted learning runs flat and without the chi-square monitor:
routing and the monitor both need the scalar walker.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.core.attributes import Schema
from repro.core.plan import SequentialNode, VerdictLeaf
from repro.core.query import ConjunctiveQuery
from repro.exceptions import FaultConfigError, LearningError
from repro.execution.streaming import (
    OUTAGE,
    OrderingPolicy,
    ReplanEvent,
    StreamLoop,
    StreamReport,
    WindowCut,
    WindowRun,
    WindowStep,
)
from repro.learn.arms import DEFAULT_MAX_ARM_PREDICATES
from repro.learn.bandit import BranchBandit, OrderBanditEnsemble
from repro.learn.ledger import RegretLedger
from repro.learn.planner import SkeletonFactory, default_regret_budget
from repro.learn.state import BanditStateStore
from repro.obs.drift import DEFAULT_DRIFT_THRESHOLD, DriftMonitor
from repro.obs.profile import PlanProfile
from repro.probability.empirical import EmpiricalDistribution

if TYPE_CHECKING:
    from repro.faults.model import FaultSchedule
    from repro.faults.policy import FaultPolicy

__all__ = ["LearnedStreamExecutor"]


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
        disables the monitor entirely).  The monitor scores the walker's
        per-node observer events, which fault-injected runs do not emit:
        with ``fault_schedule`` set, ``drift_threshold``,
        ``drift_check_every`` and ``drift_min_tuples`` have no effect
        (refits then come from the outage trigger only).
    warm_discount:
        Weight surviving posteriors keep across a refit or adoption.
    state_store / state_key / version_provider:
        Optional :class:`~repro.learn.BanditStateStore` integration: the
        final and per-refit ensemble states are stored under
        ``(state_key, version)`` and the warmup fit adopts the latest
        stored state — this is how bandit evidence survives the serving
        layer's statistics-version cache bumps.
    fault_schedule / fault_policy / fault_rng:
        As for the adaptive executor: windows run through the
        fault-tolerant executor and sustained outages trigger
        warm-started ``"outage"`` refits.  Fault-injected learning runs
        flat (no ``skeleton_planner``).
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
        on_replan: Callable[[ReplanEvent], None] | None = None,
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
            raise LearningError(f"regret_budget must be non-negative: {regret_budget}")
        if drift_check_every < 1 or drift_min_tuples < 1:
            raise LearningError("drift_check_every and drift_min_tuples must be >= 1")
        if not 0.0 < warm_discount <= 1.0:
            raise LearningError(f"warm_discount must be in (0, 1]: {warm_discount}")
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
        self._warmup = warmup
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
        self._state_store = state_store
        self._state_key = state_key
        self._version_provider = version_provider
        self._refit_count = 0

    def process(self, stream: np.ndarray) -> StreamReport:
        """Run the query over ``stream`` (rows in arrival order)."""
        return self._loop.run(stream, _BanditPolicy(self))

    def _budget(self) -> float:
        if self._regret_budget is not None:
            return self._regret_budget
        return default_regret_budget(self._schema, self._query)

    def _store_state(self, ensemble: OrderBanditEnsemble) -> None:
        if self._state_store is None or self._state_key is None:
            return
        provider = self._version_provider
        version = provider() if provider is not None else self._refit_count
        self._state_store.put(self._state_key, version, ensemble.export_state())

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


def _replay_costs(
    ensemble: OrderBanditEnsemble,
    branch: BranchBandit,
    values: dict[int, int],
    routed: frozenset[int],
) -> list[float]:
    """Counterfactual clean cost of every arm on one complete row.

    Replays start from the routed (conditioning) read set — those reads
    are shared context, not part of any arm's cost — and short-circuit
    exactly as a real walk would.
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


class _BanditPolicy(OrderingPolicy):
    """The bandit's side of one run: arm decisions and rewards."""

    warmup_reason = "warmup"

    def __init__(self, owner: LearnedStreamExecutor) -> None:
        self._owner = owner
        self._ledger = RegretLedger(owner._budget())
        # Per-node monitors need the walker's observer events (see
        # StreamLoop.observed): fault-injected runs build none.
        self._faulted = not owner._loop.observed
        self._drift_threshold = None if self._faulted else owner._drift_threshold
        self._span_inflation = 1.0
        fault_policy = owner._loop.fault_policy
        if fault_policy is not None:
            # One acquire may charge the base read plus max_retries
            # backoffs, and a degraded tuple may re-attempt the attribute
            # once more on the skip/confirm path: bound a pull by twice
            # the retry blow-up.
            retry = fault_policy.retry
            blowup = sum(retry.backoff_base**k for k in range(retry.max_retries))
            self._span_inflation = 2.0 * (1.0 + blowup)
        self._emit: Callable[[ReplanEvent], None] = lambda event: None
        self._pulls = np.zeros(0, dtype=np.int64)
        self._ensemble: OrderBanditEnsemble | None = None
        self._distribution: EmpiricalDistribution | None = None
        self._profile: PlanProfile | None = None
        self._monitor: DriftMonitor | None = None
        self._since_check = 0
        # The faulted window's speculative decision: (full pull?, arm id).
        self._decision: tuple[bool, int] | None = None
        # The row step's routed branch and pulled arm, for its scan.
        self._branch: BranchBandit | None = None
        self._arm = -1

    def start(self, total: int, emit: Callable[[ReplanEvent], None]) -> int:
        if total == 0:
            raise LearningError("cannot learn over an empty stream")
        self._pulls = np.full(total, -1, dtype=np.int64)
        self._emit = emit
        return min(self._owner._warmup, total)

    def warmed(self, costs: np.ndarray) -> None:
        for cost in costs.tolist():
            self._ledger.charge_warmup(cost)

    def refit(
        self,
        position: int,
        reason: str,
        distribution: EmpiricalDistribution,
        drift_score: float | None,
    ) -> ReplanEvent:
        """New ensemble on fresh statistics, warm-started when shapes match."""
        owner = self._owner
        old = self._ensemble
        inflation = self._span_inflation
        ensemble = owner._build_ensemble(distribution, self._ledger, inflation)
        discount = owner._warm_discount
        if old is None:  # adopt the latest stored evidence, if any
            store, key = owner._state_store, owner._state_key
            stored = None
            if store is not None and key is not None:
                stored = store.latest(key)
            warm = stored is not None and ensemble.adopt(stored[1], discount)
        else:
            owner._refit_count += 1
            warm = ensemble.adopt(old.export_state(), discount)
        self._ensemble, self._distribution = ensemble, distribution
        self._fresh_monitor()
        owner._store_state(ensemble)
        return self._event(position, reason, "root", -1, drift_score, warm)

    def next_window(self, position: int, total: int) -> WindowStep:
        if not self._faulted:
            return WindowStep(end=position + 1)
        assert self._ensemble is not None
        branch = self._ensemble.branches[0]
        if self._decision is None:
            full = branch.wants_full_pull()
            self._decision = (full, branch.served if full else branch.select())
        full, arm_id = self._decision
        # A burst's pulls change the incumbent's evidence every tuple; a
        # served run usually lasts to the end of the stream.
        burst = max(1, self._owner._burst_pulls)
        end = min(total, position + burst) if full else total
        return WindowStep(end=end, plan=branch.arm_space[arm_id].plan, read_all=full)

    def scan(self, run: WindowRun) -> WindowCut:
        if self._faulted:
            return self._scan_faulted(run)
        assert self._branch is not None
        self._pulls[run.start] = self._arm
        self._after_pull(run.start, self._branch)
        score = self._drift_check()
        return 1, None if score is None else "drift-refit", score

    def report_fields(self, costs: np.ndarray) -> dict[str, Any]:
        ensemble = self._ensemble
        assert ensemble is not None
        self._owner._store_state(ensemble)
        return {
            "pulls": self._pulls,
            "ledger": self._ledger.snapshot(),
            "provenance": ensemble.provenance(float(costs.sum())),
            "plan": ensemble.composite_plan(),
            "committed": ensemble.committed,
        }

    def _event(
        self,
        position: int,
        reason: str,
        branch: str,
        arm: int,
        drift_score: float | None = None,
        warm: bool = True,
    ) -> ReplanEvent:
        assert self._ensemble is not None and self._distribution is not None
        cost = self._ensemble.expected_cost(self._distribution)
        left = self._ledger.budget_remaining
        return ReplanEvent(position, cost, reason, drift_score, branch, arm, warm, left)

    def _fresh_monitor(self) -> None:
        if self._drift_threshold is None:
            return
        assert self._ensemble is not None and self._distribution is not None
        self._profile = PlanProfile(self._owner._schema)
        self._monitor = DriftMonitor(
            self._ensemble.composite_plan(),
            self._distribution,
            threshold=self._drift_threshold,
        )
        self._since_check = 0

    def _after_pull(self, position: int, branch: BranchBandit) -> bool:
        """PAO swap/commit checks after a pull; True if either fired."""
        swapped = branch.maybe_swap()
        if swapped is not None:
            self._emit(self._event(position + 1, "order-swap", branch.path, swapped))
            self._fresh_monitor()
            return True
        if branch.check_commit():
            self._emit(self._event(position + 1, "commit", branch.path, branch.served))
            return True
        return False

    def _drift_check(self) -> float | None:
        """The chi-square score, when a due assessment finds drift."""
        if self._monitor is None or self._profile is None:
            return None
        self._since_check += 1
        owner = self._owner
        if (
            self._since_check >= owner._drift_check_every
            and self._profile.tuples >= owner._drift_min_tuples
        ):
            self._since_check = 0
            assessment = self._monitor.assess(self._profile)
            if assessment.drifted:
                return assessment.normalized
        return None

    def _scan_faulted(self, run: WindowRun) -> WindowCut:
        """Book the window's decision; cut where the next one may differ.

        A served decision cannot change before the window's first outage
        row: without step passes the change detector cannot fire, and
        outside a burst no swap or commit can.  So the served run up to
        and including that row is booked in one
        :meth:`~repro.learn.bandit.BranchBandit.record_run` call.  A
        burst window is replayed tuple by tuple and cut at the first
        tuple whose decision differs, or after a tuple that swaps,
        commits or trips the outage trigger.  The rows after a cut run
        again under the next decision on the same row-keyed dice.
        """
        assert self._ensemble is not None and self._decision is not None
        assert run.failed is not None and run.observed is not None
        ensemble = self._ensemble
        branch = ensemble.branches[0]
        full, arm_id = self._decision
        self._decision = None
        if not full:
            kept, reason = run.costs.size, None
            if run.outage is not None and run.outage.any():
                kept, reason = int(np.argmax(run.outage)) + 1, OUTAGE
            branch.record_run(run.costs[:kept].tolist())
            self._pulls[run.start : run.start + kept] = arm_id
            return kept, reason, None
        plan = branch.arm_space[arm_id].plan
        kept = 0
        for offset, cost in enumerate(run.costs.tolist()):
            here = run.start + offset
            if offset:
                wants = branch.wants_full_pull()
                decision = (wants, branch.served if wants else branch.select())
                if decision != (full, arm_id):
                    self._decision = decision
                    break
            if run.failed[offset]:
                branch.record_full_failure(cost)
            else:
                seen = run.observed[offset]
                values = {
                    step.attribute_index: int(seen[step.attribute_index])
                    for step in plan.steps
                }
                replayed = _replay_costs(ensemble, branch, values, frozenset())
                branch.record_full(cost, replayed)
            self._pulls[here] = branch.served
            kept = offset + 1
            changed = self._after_pull(here, branch)
            if run.outage is not None and run.outage[offset]:
                return kept, OUTAGE, None
            if changed:
                break
        return kept, None, None

    def row_step(self, row: np.ndarray) -> tuple[float, bool]:
        """Route, pull, meter, and (for served tuples) profile one row."""
        ensemble = self._ensemble
        assert ensemble is not None
        acquired: set[int] = set()
        branch, visits, conditioning_cost = ensemble.route(row, acquired)
        routed = frozenset(acquired)
        self._ledger.charge_conditioning(conditioning_cost)
        self._branch = branch

        if branch.wants_full_pull():
            leaf_cost, verdict = self._full_pull(row, branch, acquired, routed)
            self._arm = branch.served
            return conditioning_cost + leaf_cost, verdict

        arm_id = branch.select()
        self._arm = arm_id
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

        branch.record(arm_id, leaf_cost, tuple(passed for _, passed, _ in step_trace))

        profile = self._profile
        if profile is not None:
            for visit in visits:
                profile.on_condition(
                    visit.path, visit.node, 1, int(visit.below), visit.acquired
                )
            if isinstance(plan, SequentialNode):
                profile.on_sequential(branch.path, plan, 1)
                for step_index, passed, newly in step_trace:
                    passes = int(passed)
                    profile.on_step(branch.path, plan, step_index, 1, passes, newly)
            else:
                profile.on_verdict(branch.path, plan, 1)

        return conditioning_cost + leaf_cost, verdict

    def _full_pull(
        self,
        row: np.ndarray,
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
        ensemble = self._ensemble
        assert ensemble is not None
        plan = branch.served_arm.plan
        if not isinstance(plan, SequentialNode):  # pragma: no cover
            raise LearningError(f"full pull on a {type(plan).__name__} arm")
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
        branch.record_full(leaf_cost, _replay_costs(ensemble, branch, values, routed))
        return leaf_cost, verdict
