"""Per-tuple reference arms for the windowed executors.

:class:`ReferenceExecutor` is the row-at-a-time executor the windowed
:class:`~repro.faults.FaultTolerantExecutor` replaced: one
:class:`~repro.faults.FaultInjector` serves every row (``rebind`` moves to
the next row id), each read is retried inside ``acquire``, and the plan
walk degrades per the policy once a read stays unavailable.  Both arms
roll the same row-keyed dice, so on any input they must agree exactly.

``reference_adaptive``, ``reference_learned`` and
``reference_adaptive_plain`` are the per-tuple stream loops the windowed
stream loop replaced: every tuple runs on its own and every trigger is
checked after every tuple.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.plan import ConditionNode, PlanNode, SequentialNode, VerdictLeaf
from repro.core.ranges import RangeVector
from repro.exceptions import AcquisitionFailure, PlanError
from repro.execution.acquisition import TupleSource
from repro.faults import (
    DegradationMode,
    FaultedExecutionResult,
    FaultInjector,
    FaultSchedule,
    FaultTolerantExecutor,
)
from repro.probability.empirical import EmpiricalDistribution


class ReferenceExecutor:
    """Per-tuple twin of a :class:`FaultTolerantExecutor` (same policy)."""

    def __init__(self, executor: FaultTolerantExecutor) -> None:
        self._executor = executor
        self._policy = executor.policy
        self._query = executor.query
        self._distribution = executor.distribution
        self._schema = executor.schema

    def run(
        self,
        plan: PlanNode,
        data: np.ndarray,
        schedule: FaultSchedule,
        rng: np.random.Generator,
        read_all: bool = False,
    ) -> tuple[list[FaultedExecutionResult], FaultInjector | None]:
        injector: FaultInjector | None = None
        results: list[FaultedExecutionResult] = []
        for row in np.asarray(data):
            source = TupleSource(self._schema, row)
            if injector is None:
                injector = FaultInjector(
                    source,
                    schedule,
                    rng,
                    retry_policy=self._policy.retry,
                )
            else:
                injector.rebind(source)
            if read_all:
                assert isinstance(plan, SequentialNode)
                results.append(self.read_all(plan.steps, injector))
            else:
                results.append(self.execute_source(plan, injector))
        return results, injector

    def execute_source(
        self, plan: PlanNode, source: FaultInjector
    ) -> FaultedExecutionResult:
        failed: set[int] = set()
        imputed: set[int] = set()
        degraded = [False]
        verdict = self._walk(plan, source, failed, imputed, degraded)
        if verdict is True and imputed and self._policy.confirm_positives:
            verdict = self._skip_evaluate(source, failed)
        return self._result(source, verdict, failed, imputed, degraded[0])

    def read_all(
        self, steps: Sequence, source: FaultInjector
    ) -> FaultedExecutionResult:
        """The plan-less warm-up / full-information read of every step."""
        failed: set[int] = set()
        verdict: bool | None = True
        for step in steps:
            try:
                value = source.acquire(step.attribute_index)
            except AcquisitionFailure:
                failed.add(step.attribute_index)
                if self._policy.degradation is DegradationMode.ABSTAIN:
                    verdict = None
                    break
                if verdict is True:
                    verdict = None
                continue
            if not step.predicate.satisfied_by(value):
                verdict = False
        return self._result(source, verdict, failed, set(), bool(failed))

    def _result(self, source, verdict, failed, imputed, degraded):
        return FaultedExecutionResult(
            verdict=verdict,
            cost=source.total_cost,
            base_cost=source.base_cost,
            retry_cost=source.retry_cost,
            acquired=source.acquired_indices,
            failed=frozenset(failed),
            imputed=frozenset(imputed),
            degraded=degraded,
            observed=source.observed,
        )

    def _walk(self, node, source, failed, imputed, degraded):
        if isinstance(node, VerdictLeaf):
            return node.verdict
        if isinstance(node, SequentialNode):
            for step in node.steps:
                try:
                    value = source.acquire(step.attribute_index)
                except AcquisitionFailure:
                    return self._degrade(
                        source, step.attribute_index, None, failed, imputed, degraded
                    )
                if not step.predicate.satisfied_by(value):
                    return False
            return True
        if isinstance(node, ConditionNode):
            try:
                value = source.acquire(node.attribute_index)
            except AcquisitionFailure:
                return self._degrade(
                    source, node.attribute_index, node, failed, imputed, degraded
                )
            branch = node.above if value >= node.split_value else node.below
            return self._walk(branch, source, failed, imputed, degraded)
        raise PlanError(f"unknown plan node type {type(node).__name__}")

    def _degrade(self, source, attribute, node, failed, imputed, degraded):
        failed.add(attribute)
        degraded[0] = True
        mode = self._policy.degradation
        if mode is DegradationMode.ABSTAIN:
            return None
        if (
            mode is DegradationMode.IMPUTE
            and node is not None
            and self._distribution is not None
        ):
            p_below = self._distribution.split_probability(
                node.attribute_index,
                node.split_value,
                RangeVector.full(self._schema),
            )
            imputed.add(attribute)
            branch = node.below if p_below >= 0.5 else node.above
            return self._walk(branch, source, failed, imputed, degraded)
        return self._skip_evaluate(source, failed)

    def _skip_evaluate(self, source, failed):
        query = self._query
        any_failed = False
        for predicate, index in zip(query.predicates, query.attribute_indices):
            try:
                value = source.acquire(index)
            except AcquisitionFailure:
                failed.add(index)
                any_failed = True
                continue
            if not predicate.satisfied_by(value):
                return False
        return None if any_failed else True


def _record(stream, replans, event):
    replans.append(event)
    if stream._loop._on_replan is not None:
        stream._loop._on_replan(event)


def _fit(stream, window):
    return EmpiricalDistribution(
        stream._schema, np.asarray(window, dtype=np.int64), smoothing=stream._loop._smoothing
    )


def _replan(stream, window):
    distribution = _fit(stream, window)
    result = stream._factory(distribution).plan(stream._query)
    return result.plan, result.expected_cost, distribution


def reference_adaptive(stream, matrix):
    """Row-at-a-time twin of the adaptive executor's fault-injected stream."""
    from collections import deque

    from repro.execution.streaming import ReplanEvent, StreamFaultStats, StreamReport
    from repro.faults.executor import query_read_plan

    policy = stream._loop.fault_policy
    schema, query = stream._schema, stream._query
    total = matrix.shape[0]
    costs = np.zeros(total)
    verdicts = np.zeros(total, dtype=bool)
    abstained = np.zeros(total, dtype=bool)
    replans = []
    degraded = 0
    window = deque(maxlen=stream._window)
    fail_window = deque(maxlen=policy.outage_window)
    plan = None
    predicted = 0.0
    since = 0
    cost_since = 0.0
    executor = ReferenceExecutor(FaultTolerantExecutor(schema, policy, query=query))
    warm_steps = query_read_plan(query).steps
    injector = None

    def swap():
        nonlocal plan, predicted, executor
        plan, predicted, distribution = _replan(stream, window)
        executor = ReferenceExecutor(
            FaultTolerantExecutor(schema, policy, query=query, distribution=distribution)
        )

    warmup = min(stream._window, stream._replan_interval, total)
    for position in range(total):
        row = matrix[position]
        source = TupleSource(schema, row)
        if injector is None:
            injector = FaultInjector(
                source,
                stream._loop._fault_schedule,
                stream._loop._fault_rng,
                retry_policy=policy.retry,
            )
        else:
            injector.rebind(source)
        if plan is None:
            result = executor.read_all(warm_steps, injector)
        else:
            result = executor.execute_source(plan, injector)
        costs[position] = result.cost
        verdicts[position] = result.verdict is True
        abstained[position] = result.abstained
        fail_window.append(bool(result.failed))
        degraded += result.degraded
        window.append(row)
        if plan is None:
            if position + 1 >= warmup:
                swap()
                _record(stream, replans, ReplanEvent(position + 1, predicted, "interval"))
                since, cost_since = 0, 0.0
            continue
        since += 1
        cost_since += float(result.cost)
        drifted = (
            stream._drift_threshold is not None
            and since >= 50
            and predicted > 0.0
            and cost_since / since > stream._drift_threshold * predicted
        )
        outage = (
            policy.outage_replan_threshold is not None
            and len(fail_window) >= policy.outage_window
            and sum(fail_window) / len(fail_window) >= policy.outage_replan_threshold
        )
        if since >= stream._replan_interval or drifted or outage:
            reason = "outage" if outage else "drift" if drifted else "interval"
            swap()
            _record(stream, replans, ReplanEvent(position + 1, predicted, reason))
            since, cost_since = 0, 0.0
            if outage:
                fail_window.clear()
    state = injector.state
    stats = StreamFaultStats(
        acquisitions_failed=state.acquisitions_failed,
        retries_total=state.retries_total,
        tuples_degraded=degraded,
        tuples_abstained=int(abstained.sum()),
        corruptions=state.corrupted,
        retry_cost=state.retry_cost,
    )
    return StreamReport(costs, verdicts, tuple(replans), abstained, stats)


def reference_learned(stream, matrix):
    """Row-at-a-time twin of the learned executor's fault-injected stream."""
    from collections import deque

    from repro.execution.streaming import ReplanEvent, StreamFaultStats, StreamReport
    from repro.faults.executor import query_read_plan
    from repro.learn.ledger import RegretLedger
    from repro.learn.stream import _replay_costs

    policy = stream._loop.fault_policy
    schema, query = stream._schema, stream._query
    retry = policy.retry
    span_inflation = 2.0 * (
        1.0 + sum(retry.backoff_base**k for k in range(retry.max_retries))
    )
    total = matrix.shape[0]
    costs = np.zeros(total)
    verdicts = np.zeros(total, dtype=bool)
    abstained = np.zeros(total, dtype=bool)
    pulls = np.full(total, -1, dtype=np.int64)
    replans = []
    window = deque(maxlen=stream._loop._window)
    fail_window = deque(maxlen=policy.outage_window)
    ledger = RegretLedger(stream._budget())
    degraded = 0
    ensemble = None
    distribution = None
    executor = ReferenceExecutor(FaultTolerantExecutor(schema, policy, query=query))
    warm_steps = query_read_plan(query).steps
    injector = None

    def event(position, reason, warm, ensemble, distribution, branch="root", arm=-1):
        return ReplanEvent(
            position=position,
            reason=reason,
            branch=branch,
            arm=arm,
            expected_cost=ensemble.expected_cost(distribution),
            warm=warm,
            budget_remaining=ledger.budget_remaining,
        )

    def post_pull(position, branch):
        swapped = branch.maybe_swap()
        if swapped is not None:
            _record(stream, replans, event(
                position + 1, "order-swap", True, ensemble, distribution,
                branch.path, swapped,
            ))
        elif branch.check_commit():
            _record(stream, replans, event(
                position + 1, "commit", True, ensemble, distribution,
                branch.path, branch.served,
            ))

    warmup = min(stream._warmup, total)
    for position in range(total):
        row = matrix[position]
        source = TupleSource(schema, row)
        if injector is None:
            injector = FaultInjector(
                source,
                stream._loop._fault_schedule,
                stream._loop._fault_rng,
                retry_policy=retry,
            )
        else:
            injector.rebind(source)
        if ensemble is None:
            result = executor.read_all(warm_steps, injector)
            ledger.charge_warmup(float(result.cost))
            costs[position] = result.cost
            verdicts[position] = result.verdict is True
            abstained[position] = result.abstained
            fail_window.append(bool(result.failed))
            degraded += result.degraded
            window.append(row)
            if position + 1 >= warmup:
                distribution = _fit(stream, window)
                ensemble = stream._build_ensemble(distribution, ledger, span_inflation)
                store, key = stream._state_store, stream._state_key
                stored = store.latest(key) if store is not None and key is not None else None
                warm = stored is not None and ensemble.adopt(stored[1], stream._warm_discount)
                executor = ReferenceExecutor(
                    FaultTolerantExecutor(
                        schema, policy, query=query, distribution=distribution
                    )
                )
                stream._store_state(ensemble)
                _record(
                    stream,
                    replans,
                    event(position + 1, "warmup", warm, ensemble, distribution),
                )
            continue
        branch = ensemble.branches[0]
        if branch.wants_full_pull():
            plan = branch.served_arm.plan
            result = executor.read_all(plan.steps, injector)
            if result.failed:
                branch.record_full_failure(float(result.cost))
            else:
                branch.record_full(
                    float(result.cost),
                    _replay_costs(ensemble, branch, dict(result.observed), frozenset()),
                )
            pulls[position] = branch.served
        else:
            arm_id = branch.select()
            result = executor.execute_source(branch.arm_space[arm_id].plan, injector)
            branch.record(arm_id, float(result.cost))
            pulls[position] = arm_id
        costs[position] = result.cost
        verdicts[position] = result.verdict is True
        abstained[position] = result.abstained
        fail_window.append(bool(result.failed))
        degraded += result.degraded
        window.append(row)
        post_pull(position, branch)
        if (
            policy.outage_replan_threshold is not None
            and len(fail_window) >= policy.outage_window
            and sum(fail_window) / len(fail_window) >= policy.outage_replan_threshold
        ):
            old = ensemble
            distribution = _fit(stream, window)
            stream._refit_count += 1
            ensemble = stream._build_ensemble(distribution, ledger, span_inflation)
            warm = ensemble.adopt(old.export_state(), stream._warm_discount)
            executor = ReferenceExecutor(
                FaultTolerantExecutor(schema, policy, query=query, distribution=distribution)
            )
            fail_window.clear()
            stream._store_state(ensemble)
            _record(
                stream, replans, event(position + 1, "outage", warm, ensemble, distribution)
            )
    stream._store_state(ensemble)
    state = injector.state
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
        pulls=pulls,
        replans=tuple(replans),
        ledger=ledger.snapshot(),
        provenance=ensemble.provenance(float(costs.sum())),
        plan=ensemble.composite_plan(),
        committed=ensemble.committed,
        abstained=abstained,
        faults=stats,
    )


def reference_adaptive_plain(stream, matrix):
    """Row-at-a-time twin of the adaptive executor's fault-free stream.

    Every post-warm-up tuple runs as a one-row batch of the vectorized
    walker, and every trigger is checked after every tuple.
    """
    from collections import deque

    from repro.core.cost import dataset_execution
    from repro.execution.streaming import ReplanEvent, StreamReport

    schema, query = stream._schema, stream._query
    total = matrix.shape[0]
    costs = np.zeros(total, dtype=np.float64)
    verdicts = np.zeros(total, dtype=bool)
    replans = []

    window = deque(maxlen=stream._window)
    plan = None
    predicted = 0.0
    since_replan = 0
    cost_since_replan = 0.0
    profile = None
    monitor = None

    def swap_plan():
        nonlocal plan, predicted, profile, monitor
        plan, predicted, distribution = _replan(stream, window)
        if stream._profile_drift_threshold is not None:
            from repro.obs.drift import DriftMonitor
            from repro.obs.profile import PlanProfile

            profile = PlanProfile(schema)
            monitor = DriftMonitor(
                plan,
                distribution,
                expected=predicted,
                threshold=stream._profile_drift_threshold,
            )

    # Bootstrap: collect an initial window before the first plan.
    warmup = min(stream._window, stream._replan_interval, total)
    for position in range(total):
        row = matrix[position]
        if plan is None:
            # During warm-up, acquire every query attribute (the
            # plan-less baseline) and record statistics.
            costs[position] = sum(schema[index].cost for index in query.attribute_indices)
            verdicts[position] = query.evaluate(row)
            window.append(row)
            if position + 1 >= warmup:
                swap_plan()
                _record(stream, replans, ReplanEvent(position + 1, predicted, "interval"))
                since_replan = 0
                cost_since_replan = 0.0
            continue

        outcome = dataset_execution(plan, row[None, :], schema, observer=profile)
        costs[position] = outcome.costs[0]
        verdicts[position] = outcome.verdicts[0]
        window.append(row)
        since_replan += 1
        cost_since_replan += float(outcome.costs[0])

        drifted = (
            stream._drift_threshold is not None
            and since_replan >= 50  # need a stable estimate first
            and predicted > 0.0
            and cost_since_replan / since_replan > stream._drift_threshold * predicted
        )
        profile_score = None
        if (
            not drifted
            and monitor is not None
            and since_replan % stream._profile_check_every == 0
            and profile.tuples >= stream._profile_min_tuples
        ):
            assessment = monitor.assess(profile)
            if assessment.drifted:
                profile_score = assessment.normalized
        if since_replan >= stream._replan_interval or drifted or profile_score is not None:
            if drifted:
                reason = "drift"
            elif profile_score is not None:
                reason = "profile-drift"
            else:
                reason = "interval"
            swap_plan()
            _record(
                stream,
                replans,
                ReplanEvent(position + 1, predicted, reason, drift_score=profile_score),
            )
            since_replan = 0
            cost_since_replan = 0.0

    return StreamReport(costs=costs, verdicts=verdicts, replans=tuple(replans))
