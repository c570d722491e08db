"""The multi-query serving runtime.

:class:`AcquisitionalService` sits above an
:class:`~repro.engine.AcquisitionalEngine` and serves a *workload* of
statements rather than one statement at a time:

- statements are canonicalized and fingerprinted, so every spelling of
  the same query shares one plan-cache slot;
- plans are cached in a bounded LRU/LFU :class:`~repro.service.cache.PlanCache`
  keyed by (fingerprint, statistics version) — every statistics change
  bumps the version.  A :meth:`refit` re-certifies each cached plan: it
  re-costs the plan under the new distribution and keeps it, re-stamped
  with the new version, while the cost moved less than a PAO-style
  confidence radius (:func:`~repro.learn.pao.recertify_radius`), and
  drops it otherwise.  Any other bump (an adaptive-stream replan, an
  outage, an explicit bump) invalidates every old-generation plan;
- every request runs through one pipeline, :meth:`serve`: fingerprint →
  cache → plan → admit → execute → account.  Same-fingerprint plain
  requests share one vectorized pass over their stacked readings; a
  faulted request runs alone through the fault-tolerant executor.
  :meth:`execute`, :meth:`execute_batch` and :meth:`execute_resilient`
  are thin front ends over it, and so is the sharded tier's shard;
- counters and latency histograms are recorded throughout and exposed
  via :meth:`stats`.

With ``profiling=True`` the service additionally keeps one
:class:`~repro.obs.PlanProfile` per served plan and a matching
:class:`~repro.obs.DriftMonitor`; :meth:`check_drift` scores every
profiled plan's observed behaviour against its Eq. 3 predictions and —
when any plan has drifted — bumps the statistics version (or refits on
supplied history), so the next request replans from fresh statistics.
A :class:`~repro.obs.Tracer` (optional) receives structured span events
for every phase: plan, verify, cache-hit, cache-miss, cache-reject,
execute, execute-resilient, replan, recertify, learn.

The paper's architecture makes this cheap to get right: plans are
trained *once* on historical statistics and reused per-tuple, so the
only cache-coherence event is a statistics change — exactly what the
version stamp tracks.  A plan's answers never depend on the statistics,
only its Eq. 3 cost does, which is why a refit may keep a plan whose
cost it has re-certified.
"""

from __future__ import annotations

import dataclasses
import time
from functools import cached_property, partial
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.core.attributes import Schema
from repro.core.cost import NodeCostContribution, cost_decomposition, root_bound
from repro.core.plan import ConditionNode, PlanNode, SequentialNode
from repro.engine.engine import (
    AcquisitionalEngine,
    PreparedQuery,
    QueryResult,
    ResilientQueryResult,
)
from repro.engine.language import ParsedQuery, parse_query
from repro.exceptions import PlanVerificationError, QueryError, ReproError, ServiceError
from repro.execution.streaming import AdaptiveStreamExecutor, ReplanEvent
from repro.faults.policy import FaultPolicy
from repro.learn.pao import recertify_radius, recertify_warranted
from repro.service.cache import PlanCache
from repro.service.fingerprint import (
    QueryFingerprint,
    StatementMemo,
    fingerprint_parsed,
)
from repro.service.metrics import Counter, Gauge, LatencyHistogram, MetricsRegistry

from repro.verify import VerificationReport, verify_plan
from repro.verify.rules import check_cost

if TYPE_CHECKING:
    from repro.faults.model import FaultSchedule
    from repro.learn.state import BanditStateStore
    from repro.learn.stream import LearnedStreamExecutor
    from repro.obs.drift import DriftMonitor, DriftReport
    from repro.obs.profile import PlanProfile
    from repro.obs.trace import TraceContext, Tracer

__all__ = ["AcquisitionalService", "FaultContext", "Outcome", "Request"]

# Where a pipeline event goes: the service span, then the request's remote
# trace id and parent span (empty for a request with no trace parent).
_Where = tuple[str, str, str]

# Stream-executor arguments each factory wires itself.
_OWNED_KWARGS = {
    "adaptive": ("on_replan",),
    "learned": ("on_replan", "state_store", "state_key", "version_provider"),
}
# The trace phase and event fields each factory's replans are traced with.
_STREAM_TRACE = {
    "adaptive": ("replan", ("reason", "position", "expected_cost", "drift_score")),
    "learned": (
        "learn",
        ("reason", "position", "branch", "arm", "expected_cost", "budget_remaining"),
    ),
}
# The counter each learned replan reason increments.
_LEARNED_COUNTERS = {
    "order-swap": "learned_order_swaps",
    "commit": "learned_commits",
    "drift-refit": "learned_drift_refits",
    "outage": "learned_drift_refits",
}


def _acquisition_span(plan: PlanNode, schema: Schema) -> float:
    """Summed cost of every attribute ``plan`` can acquire.

    No tuple can cost more than this, so it is the span of the per-tuple
    costs whose mean is the plan's Eq. 3 expectation.
    """
    indices: set[int] = set()
    for node in plan.iter_nodes():
        if isinstance(node, ConditionNode):
            indices.add(node.attribute_index)
        elif isinstance(node, SequentialNode):
            indices.update(step.attribute_index for step in node.steps)
    return float(sum(schema[index].cost for index in indices))


@dataclasses.dataclass(frozen=True)
class FaultContext:
    """Fault injection for one request: schedule, seeded RNG and policy."""

    schedule: "FaultSchedule"
    rng: np.random.Generator
    policy: FaultPolicy = FaultPolicy()


@dataclasses.dataclass(frozen=True)
class Request:
    """One statement to serve over live readings.

    A request with ``faults`` runs alone through the fault-tolerant
    executor instead of joining a stacked pass.  ``trace`` parents its
    service events under a remote span (the shard's ``shard-execute``
    span); without it they are flat events of the service's own span.
    """

    text: str
    readings: np.ndarray
    faults: FaultContext | None = None
    trace: "TraceContext | None" = None


@dataclasses.dataclass(frozen=True)
class Outcome:
    """One served request: its result or its error, and the plan that served it."""

    result: QueryResult | ResilientQueryResult | None = None
    error: ReproError | None = None
    prepared: PreparedQuery | None = None

    def unwrap(self) -> Any:
        """The result; raises the error of a failed request."""
        if self.error is not None:
            raise self.error
        return self.result


_UNSERVED = Outcome()


class _PlanObservability:
    """Per-served-plan profile + lazily-built drift monitor."""

    __slots__ = ("prepared", "profile", "_monitor", "_threshold")

    def __init__(
        self, prepared: PreparedQuery, profile: "PlanProfile", threshold: float
    ) -> None:
        self.prepared = prepared
        self.profile = profile
        self._monitor: "DriftMonitor | None" = None
        self._threshold = threshold

    def monitor(self, engine: AcquisitionalEngine) -> "DriftMonitor":
        if self._monitor is None:
            from repro.obs.drift import DriftMonitor

            self._monitor = DriftMonitor(
                self.prepared.plan,
                engine.distribution,
                expected=self.prepared.expected_where_cost,
                threshold=self._threshold,
            )
        return self._monitor


class AcquisitionalService:
    """Serve many acquisitional queries through one shared plan cache.

    Parameters
    ----------
    engine:
        The underlying engine (owns schema, statistics, and planners).
    cache_capacity:
        Maximum number of cached plans.
    cache_policy:
        ``"lru"`` (recency) or ``"lfu"`` (frequency — the right choice
        for heavily skewed workloads).
    cache_enabled:
        ``False`` plans every statement from scratch; useful as the
        baseline when measuring what the cache buys.
    verify_admission:
        ``True`` (the default) runs the static plan verifier
        (:func:`repro.verify.verify_plan`) as the cache's admission
        gate: a plan with ERROR-severity diagnostics is served once but
        never cached, and the rejection is counted in :meth:`stats`
        (``plans_rejected`` and the cache's ``rejections``).
    profiling:
        ``True`` keeps a per-plan :class:`~repro.obs.PlanProfile` fed by
        every execution, enabling :meth:`profile_for`,
        :meth:`drift_reports`, and :meth:`check_drift`.  Off by default:
        the disabled path adds no per-node work.
    tracer:
        Optional :class:`~repro.obs.Tracer` receiving one structured
        event per phase (plan / verify / cache-hit / cache-miss /
        execute / replan / recertify) with span ids and timings.
    drift_threshold:
        Normalized chi-square score above which :meth:`check_drift`
        declares a plan drifted.
    drift_min_tuples:
        Plans profiled on fewer tuples than this are skipped by
        :meth:`check_drift` (small samples make the score noisy).
    """

    def __init__(
        self,
        engine: AcquisitionalEngine,
        cache_capacity: int = 256,
        cache_policy: str = "lru",
        cache_enabled: bool = True,
        verify_admission: bool = True,
        profiling: bool = False,
        tracer: "Tracer | None" = None,
        drift_threshold: float = 25.0,
        drift_min_tuples: int = 256,
    ) -> None:
        self._engine = engine
        self._verify_admission = bool(verify_admission)
        admission = self._admit_plan if self._verify_admission else None
        self._cache: PlanCache[QueryFingerprint, PreparedQuery] = PlanCache(
            capacity=cache_capacity, policy=cache_policy, admission=admission
        )
        self._cache_enabled = bool(cache_enabled)
        self._metrics = MetricsRegistry()
        self._profiling = bool(profiling)
        self._tracer = tracer
        if drift_threshold <= 0:
            raise ServiceError(
                f"drift_threshold must be positive, got {drift_threshold}"
            )
        if drift_min_tuples < 1:
            raise ServiceError(
                f"drift_min_tuples must be >= 1, got {drift_min_tuples}"
            )
        self._drift_threshold = float(drift_threshold)
        self._drift_min_tuples = int(drift_min_tuples)
        self._profiles: dict[QueryFingerprint, _PlanObservability] = {}
        self._bandit_store: "BanditStateStore | None" = None
        # Where the admission gate's events go: the span and remote trace
        # parent of the request being planned (set around ``cache.put``).
        self._admitting: _Where = ("", "", "")
        self._statements = StatementMemo(self._parse)
        # Row count of the statistics a running refit replaces; set only
        # while :meth:`refit` is inside the engine's version bump.
        self._rows_before_refit: int | None = None
        # The plan a refit is re-stamping and the records of its one
        # re-certification walk, which the admission gate reads next.
        self._restamp: (
            tuple[PreparedQuery, dict[str, NodeCostContribution]] | None
        ) = None
        engine.add_statistics_listener(self._on_statistics_version)

    # The request path's metrics, each bound on first use: the registry
    # lists a series from then on, as when it was looked up per request.
    @cached_property
    def _queries(self) -> Counter:
        return self._metrics.counter("queries")

    @cached_property
    def _ledger(self) -> Gauge:
        return self._metrics.gauge("acquisition_cost_total")

    @cached_property
    def _execution(self) -> LatencyHistogram:
        return self._metrics.histogram("execution")

    @cached_property
    def _cache_hits(self) -> Counter:
        events = self._metrics.labeled_counter("cache_events", "event")
        return events.labels(event="hit")

    @cached_property
    def _cache_misses(self) -> Counter:
        events = self._metrics.labeled_counter("cache_events", "event")
        return events.labels(event="miss")

    def _timer(self) -> "Callable[[], float]":
        """The clock trace durations are measured on.

        With a tracer attached, durations come off the tracer's
        injectable clock so traces stay byte-reproducible under a fake
        clock; without one (no trace events to stamp anyway) the
        monotonic clock is the right tool.  Metrics histograms always
        observe real ``perf_counter`` elapsed time regardless.
        """
        if self._tracer is not None:
            return self._tracer.now
        return time.perf_counter

    def _admit_plan(
        self, _fingerprint: QueryFingerprint, prepared: PreparedQuery
    ) -> bool:
        """Cache-admission gate: statically verify the prepared plan.

        A refit's re-stamp passed the structural rules when it was first
        admitted, and they read no statistics: only the cost rules run
        again, on the records of its re-certification walk.
        """
        timer = self._timer()
        start = timer()
        restamp = self._restamp
        if restamp is not None and restamp[0] is prepared:
            self._restamp = None
            report = VerificationReport.from_findings(
                check_cost(restamp[1], claimed_cost=prepared.expected_where_cost)
            )
        else:
            report = verify_plan(
                prepared.plan,
                self._engine.schema,
                query=prepared.parsed.query,
                distribution=self._engine.distribution,
                claimed_cost=prepared.expected_where_cost,
            )
        if self._tracer is not None:
            self._emit(
                "verify",
                self._admitting,
                fingerprint=str(_fingerprint),
                ms=(timer() - start) * 1e3,
                ok=report.ok,
            )
        if not report.ok:
            self._metrics.counter("plans_rejected").increment()
            if self._tracer is not None:
                self._emit(
                    "cache-reject",
                    self._admitting,
                    fingerprint=str(_fingerprint),
                    errors=len(report.errors),
                )
        return report.ok

    def _emit(self, phase: str, where: _Where, **fields: Any) -> None:
        assert self._tracer is not None
        span, trace, parent = where
        self._tracer.emit(phase, span=span, trace=trace, parent=parent, **fields)

    # ------------------------------------------------------------------
    # Planning path
    # ------------------------------------------------------------------

    @property
    def engine(self) -> AcquisitionalEngine:
        return self._engine

    @property
    def cache(self) -> PlanCache:
        return self._cache

    @property
    def cache_enabled(self) -> bool:
        return self._cache_enabled

    @property
    def profiling(self) -> bool:
        return self._profiling

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    @property
    def tracer(self) -> "Tracer | None":
        return self._tracer

    def _parse(self, text: str) -> tuple[ParsedQuery, QueryFingerprint]:
        parsed = parse_query(text, self._engine.schema)
        return parsed, fingerprint_parsed(parsed, self._engine.schema)

    def fingerprint(self, text: str) -> QueryFingerprint:
        """Canonical fingerprint of a statement under the engine's schema."""
        return self._statements.lookup(text)[1]

    def plan_for(self, text: str) -> PreparedQuery:
        """The (cached) prepared plan serving a statement."""
        parsed, fingerprint = self._statements.lookup(text)
        return self._prepared_for(parsed, fingerprint, text, ("", "", ""))

    def _prepared_for(
        self,
        parsed: ParsedQuery,
        fingerprint: QueryFingerprint,
        text: str,
        where: _Where,
    ) -> PreparedQuery:
        """The plan stage: cache lookup, else plan and verifier admission."""
        version = self._engine.statistics_version
        if self._cache_enabled:
            cached = self._cache.get(fingerprint, version)
            event = "miss" if cached is None else "hit"
            (self._cache_misses if cached is None else self._cache_hits).increment()
            if self._tracer is not None:
                self._emit(f"cache-{event}", where, fingerprint=str(fingerprint))
            if cached is not None:
                return cached
        timer = self._timer()
        build_start = timer()
        prepared = self._engine.prepare_parsed(parsed, text=text)
        build_ms = (timer() - build_start) * 1e3
        self._metrics.counter("plans_built").increment()
        self._metrics.histogram("planning").observe(prepared.planning_seconds)
        if self._tracer is not None:
            self._emit(
                "plan",
                where,
                fingerprint=str(fingerprint),
                ms=build_ms,
                planner=prepared.planner,
            )
        if self._cache_enabled:
            self._admitting = where
            try:
                self._cache.put(fingerprint, version, prepared)
            finally:
                self._admitting = ("", "", "")
        return prepared

    def _observer(
        self, fingerprint: QueryFingerprint, prepared: PreparedQuery
    ) -> "PlanProfile | None":
        """The per-plan profile fed by this execution (profiling on only).

        A fingerprint's profile is replaced whenever its plan changes
        (replanning under new statistics resets the ledger — old counts
        describe the old tree).
        """
        if not self._profiling:
            return None
        from repro.obs.profile import PlanProfile

        entry = self._profiles.get(fingerprint)
        if entry is None or entry.prepared is not prepared:
            entry = _PlanObservability(
                prepared,
                PlanProfile(self._engine.schema),
                self._drift_threshold,
            )
            self._profiles[fingerprint] = entry
        return entry.profile

    # ------------------------------------------------------------------
    # The request pipeline
    # ------------------------------------------------------------------

    def serve(self, requests: Sequence[Request]) -> list[Outcome]:
        """Serve requests through the one pipeline; one outcome per request.

        1. *fingerprint*: each statement goes through the statement memo
           and its readings are checked against the schema.  Plain
           requests group by fingerprint, a faulted request is a group of
           its own, and groups run in order of first appearance;
        2. *plan*: a cache lookup, else plan and verifier admission; a
           faulted group's plan is then re-verified with its fault policy
           (the ``FT*`` rules: degraded paths must stay sound);
        3. *execute*: one stacked pass per plain group, one fault-tolerant
           run per faulted request;
        4. *account*: ``queries``, the ``execution`` histogram, the fault
           counters and the outage check, and every result's Eq. 3 total
           charged to ``acquisition_cost_total``.

        A :class:`~repro.exceptions.ReproError` becomes the error outcome
        of its request (stage 1) or of its whole group; the other groups
        still run, and nothing runs twice.
        """
        # 1. fingerprint, and group.
        self._queries.increment(len(requests))
        span = self._tracer.new_span() if self._tracer is not None else ""
        outcomes = [_UNSERVED] * len(requests)
        groups: dict[Any, tuple[ParsedQuery, QueryFingerprint, list[int]]] = {}
        for position, request in enumerate(requests):
            try:
                parsed, fingerprint = self._statements.lookup(request.text)
                self._engine.validate_readings(request.readings)
            except ReproError as error:
                outcomes[position] = Outcome(error=error)
                continue
            key = fingerprint if request.faults is None else position
            groups.setdefault(key, (parsed, fingerprint, []))[2].append(position)

        ledger = self._ledger
        for parsed, fingerprint, positions in groups.values():
            lead = requests[positions[0]]
            faults = lead.faults
            where = (span, "", "")
            if lead.trace is not None:
                where = (span, lead.trace.trace_id, lead.trace.parent_span)
            timer = self._timer()
            try:
                # 2. plan; 3. execute.
                prepared = self._prepared_for(parsed, fingerprint, lead.text, where)
                if faults is not None:
                    # The FT rules: degraded paths must stay sound.
                    report = verify_plan(
                        prepared.plan,
                        self._engine.schema,
                        query=parsed.query,
                        fault_policy=faults.policy,
                    )
                    if not report.ok:
                        self._metrics.counter("plans_rejected").increment()
                        raise PlanVerificationError(report.format(), report=report)
                start = time.perf_counter()
                trace_start = timer()
                if faults is None:
                    results: list[Any] = self._engine.execute_prepared_many(
                        prepared,
                        [requests[position].readings for position in positions],
                        observer=self._observer(fingerprint, prepared),
                    )
                else:
                    results = [
                        self._engine.execute_prepared_resilient(
                            prepared,
                            lead.readings,
                            faults.schedule,
                            faults.rng,
                            policy=faults.policy,
                        )
                    ]
            except ReproError as error:
                for position in positions:
                    outcomes[position] = Outcome(error=error)
                continue
            # 4. account.
            self._execution.observe(time.perf_counter() - start)
            if self._tracer is not None:
                if faults is None:
                    phase, fields = "execute", {
                        "requests": len(results),
                        "rows": sum(len(result.rows) for result in results),
                        "tuples": sum(result.tuples_scanned for result in results),
                    }
                else:
                    phase, fields = "execute-resilient", results[0].trace_fields()
                ms = (timer() - trace_start) * 1e3
                self._emit(phase, where, fingerprint=str(fingerprint), ms=ms, **fields)
            if faults is not None:
                self._account_faults(results[0], fingerprint, faults.policy, where)
            for position, result in zip(positions, results):
                outcomes[position] = Outcome(result=result, prepared=prepared)
                query_result = result if faults is None else result.result
                ledger.increment(query_result.total_cost)
        return outcomes

    def _account_faults(
        self,
        outcome: ResilientQueryResult,
        fingerprint: QueryFingerprint,
        policy: FaultPolicy,
        where: _Where,
    ) -> None:
        """Count a faulted run's faults and treat a sustained outage as a
        statistics-invalidation event.

        A high fraction of degraded tuples means the live acquisition
        environment no longer matches what the cached plans were costed
        for — the same staleness signal as statistical drift, handled the
        same way: bump the version, drop every cached plan.
        """
        counter = self._metrics.counter
        counter("acquisitions_failed").increment(outcome.acquisitions_failed)
        counter("retries_total").increment(outcome.retries_total)
        counter("tuples_degraded").increment(outcome.tuples_degraded)
        counter("tuples_abstained").increment(outcome.tuples_abstained)
        threshold = policy.outage_replan_threshold
        scanned = outcome.result.tuples_scanned
        if threshold is None or scanned == 0:
            return
        fraction = outcome.tuples_degraded / scanned
        if fraction < threshold:
            return
        self._metrics.counter("outage_invalidations").increment()
        if self._tracer is not None:
            self._emit(
                "replan",
                ("", *where[1:]),
                fingerprint=str(fingerprint),
                reason="outage",
                failure_fraction=fraction,
            )
        self._engine.bump_statistics_version()

    def execute(self, text: str, readings: np.ndarray) -> QueryResult:
        """Serve one statement over live readings: a one-request :meth:`serve`."""
        (outcome,) = self.serve([Request(text, readings)])
        return outcome.unwrap()

    def execute_resilient(
        self,
        text: str,
        readings: np.ndarray,
        schedule: "FaultSchedule",
        rng: np.random.Generator,
        policy: FaultPolicy | None = None,
    ) -> ResilientQueryResult:
        """Serve one statement with fault injection and degradation: a
        one-request :meth:`serve` with a :class:`FaultContext`.

        The plan is re-verified with ``policy`` (default
        :class:`~repro.faults.FaultPolicy`), and a run whose degraded
        fraction reaches its ``outage_replan_threshold`` bumps the
        statistics version (``outage_invalidations``)."""
        faults = FaultContext(
            schedule, rng, policy if policy is not None else FaultPolicy()
        )
        (outcome,) = self.serve([Request(text, readings, faults)])
        return outcome.unwrap()

    def execute_batch(
        self, requests: Sequence[tuple[str, np.ndarray]]
    ) -> list[QueryResult]:
        """Serve ``(statement text, readings)`` requests in one :meth:`serve`.

        Same-fingerprint requests are planned once and executed in one
        stacked pass; results come back in request order.  Raises the
        first failed request's error.  Counts ``batch_requests`` and, when
        every request succeeded, ``batch_groups`` (one per fingerprint).
        """
        outcomes = self.serve([Request(text, readings) for text, readings in requests])
        self._metrics.counter("batch_requests").increment(len(requests))
        results = [outcome.unwrap() for outcome in outcomes]
        groups = {self.fingerprint(text) for text, _readings in requests}
        self._metrics.counter("batch_groups").increment(len(groups))
        return results

    # ------------------------------------------------------------------
    # Statistics lifecycle
    # ------------------------------------------------------------------

    def refit(
        self, history: np.ndarray, smoothing: float | None = None
    ) -> int:
        """Refit engine statistics and re-certify every cached plan.

        Each cached plan is re-costed under the new distribution by one
        Eq. 3 walk (:func:`~repro.core.cost.cost_decomposition`).  It is
        kept when ``|cost_new - cost_claimed|`` is within
        :func:`~repro.learn.pao.recertify_radius` of the plan's
        acquisition span and the two histories' row counts: it is then
        re-stamped with the new version and the new cost, and goes back
        through the cache's admission gate, whose cost rules read that
        same walk.  Otherwise it is dropped and the next request plans it
        again.  Each decision counts in ``plans_recertified`` or
        ``plans_replanned`` and emits one ``recertify`` trace event.
        Returns the new version.
        """
        self._rows_before_refit = self._engine.distribution.row_total
        try:
            return self._engine.refit(history, smoothing=smoothing)
        finally:
            self._rows_before_refit = None

    def stream_executor(self, text: str, **kwargs: Any) -> AdaptiveStreamExecutor:
        """An adaptive stream executor wired into cache invalidation.

        Each :class:`~repro.execution.streaming.ReplanEvent` of its Sec. 7
        policy is proof that the live statistics have moved away from what
        the engine's cached plans were trained on, so the service bumps the
        statistics version — invalidating the plan cache — on every swap,
        counts ``stream_replans`` (and ``outage_replans``) and traces a
        ``replan`` event.  ``kwargs`` pass through to
        :class:`~repro.execution.streaming.AdaptiveStreamExecutor`; the
        service owns ``on_replan``.
        """
        parsed, _key, on_replan = self._stream_wiring(text, kwargs, learned=False)
        return AdaptiveStreamExecutor(
            self._engine.schema,
            parsed.query,
            planner_factory=self._engine.planner_factory,
            on_replan=on_replan,
            **kwargs,
        )

    def learned_stream_executor(
        self, text: str, **kwargs: Any
    ) -> "LearnedStreamExecutor":
        """A bandit-learning stream executor wired into the service.

        Its order swaps, commits and refits count in
        ``learned_order_swaps`` / ``learned_commits`` /
        ``learned_drift_refits``, the ``learned_regret_remaining`` gauge
        tracks the unspent budget, and each event is traced as ``learn``.
        A drift or outage refit bumps the statistics version, like an
        adaptive replan.  Bandit state goes to the service-owned
        :class:`~repro.learn.BanditStateStore` under the statement's
        fingerprint digest and the statistics version; the store survives
        version bumps (posteriors are evidence, not derived artifacts), so
        a new executor for the statement warm-starts from the latest
        generation.  ``kwargs`` pass through to
        :class:`~repro.learn.LearnedStreamExecutor`; the service owns
        ``on_replan``, ``state_store``, ``state_key`` and
        ``version_provider``.
        """
        from repro.learn import LearnedStreamExecutor

        parsed, key, on_replan = self._stream_wiring(text, kwargs, learned=True)
        return LearnedStreamExecutor(
            self._engine.schema,
            parsed.query,
            on_replan=on_replan,
            state_store=self.bandit_store,
            state_key=key,
            version_provider=lambda: self._engine.statistics_version,
            **kwargs,
        )

    def _stream_wiring(
        self, text: str, kwargs: dict[str, Any], *, learned: bool
    ) -> tuple[ParsedQuery, str, Callable[[ReplanEvent], None]]:
        """Both stream factories' conjunctive check, owned-kwarg rejection
        and ``on_replan``, plus the statement's fingerprint digest."""
        parsed, fingerprint = self._statements.lookup(text)
        key = str(fingerprint)
        kind = "learned" if learned else "adaptive"
        if not parsed.is_conjunctive:
            raise QueryError(f"{kind} streaming requires a conjunctive WHERE clause")
        for owned in _OWNED_KWARGS[kind]:
            if owned in kwargs:
                raise ServiceError(
                    f"{owned} is owned by the service's {kind}-stream "
                    "integration; it wires metrics, tracing and cache "
                    "invalidation itself"
                )

        phase, traced = _STREAM_TRACE[kind]

        def on_replan(event: ReplanEvent) -> None:
            if learned:
                counter = _LEARNED_COUNTERS.get(event.reason)
                if counter is not None:
                    self._metrics.counter(counter).increment()
                gauge = self._metrics.gauge("learned_regret_remaining")
                gauge.set(event.budget_remaining)
            else:
                self._metrics.counter("stream_replans").increment()
                if event.reason == "outage":
                    self._metrics.counter("outage_replans").increment()
            if self._tracer is not None:
                fields = {name: getattr(event, name) for name in traced}
                self._tracer.emit(phase, fingerprint=key if learned else "", **fields)
            # Every adaptive swap, and every learned refit, is proof the
            # live statistics moved: invalidate the plan cache.
            if not learned or event.reason in ("drift-refit", "outage"):
                self._engine.bump_statistics_version()

        return parsed, key, on_replan

    @property
    def bandit_store(self) -> "BanditStateStore":
        """The service-owned bandit state store (created on first use)."""
        if self._bandit_store is None:
            from repro.learn import BanditStateStore

            self._bandit_store = BanditStateStore()
        return self._bandit_store

    def _on_statistics_version(self, version: int) -> None:
        self._metrics.counter("statistics_bumps").increment()
        rows_before = self._rows_before_refit
        if rows_before is None:
            self._cache.invalidate_stale(version)
        else:
            self._cache.invalidate_stale(
                version,
                partial(self._recertify, rows_before=rows_before, version=version),
            )
        # Profiles describe plans trained on the old statistics; their
        # monitors' predictions are stale too.  Start fresh ledgers.
        self._profiles.clear()
        # The bandit state store survives on purpose: learned posteriors
        # are evidence (adopted with a discount), not artifacts derived
        # from the outgoing statistics generation.

    def _recertify(
        self,
        fingerprint: QueryFingerprint,
        prepared: PreparedQuery,
        rows_before: int,
        version: int,
    ) -> PreparedQuery | None:
        """Re-stamp ``prepared`` for ``version`` if its cost moved only by noise."""
        distribution = self._engine.distribution
        records = cost_decomposition(prepared.plan, distribution)
        cost = root_bound(records)
        radius = recertify_radius(
            _acquisition_span(prepared.plan, self._engine.schema),
            rows_before,
            distribution.row_total,
        )
        kept = recertify_warranted(prepared.expected_where_cost, cost, radius)
        self._metrics.counter(
            "plans_recertified" if kept else "plans_replanned"
        ).increment()
        if self._tracer is not None:
            self._tracer.emit(
                "recertify",
                fingerprint=str(fingerprint),
                cost_before=prepared.expected_where_cost,
                cost_after=cost,
                radius=radius,
                kept=kept,
            )
        if not kept:
            return None
        restamped = dataclasses.replace(
            prepared, expected_where_cost=cost, statistics_version=version
        )
        if self._verify_admission:
            self._restamp = (restamped, records)
        return restamped

    # ------------------------------------------------------------------
    # Drift monitoring
    # ------------------------------------------------------------------

    def profile_for(self, text: str) -> "PlanProfile | None":
        """The live profile of the plan serving ``text`` (or ``None``)."""
        if not self._profiling:
            return None
        entry = self._profiles.get(self.fingerprint(text))
        return entry.profile if entry is not None else None

    def drift_reports(
        self, min_tuples: int | None = None
    ) -> dict[str, "DriftReport"]:
        """Assess every sufficiently-profiled plan; no side effects.

        Keys are fingerprint digests (the stable metrics/log label).
        """
        if not self._profiling:
            return {}
        floor = self._drift_min_tuples if min_tuples is None else min_tuples
        reports: dict[str, DriftReport] = {}
        for fingerprint, entry in self._profiles.items():
            if entry.profile.tuples < floor:
                continue
            reports[str(fingerprint)] = entry.monitor(self._engine).assess(
                entry.profile
            )
        return reports

    def check_drift(
        self, refit_history: np.ndarray | None = None
    ) -> dict[str, "DriftReport"]:
        """Assess drift and, if any plan drifted, invalidate stale plans.

        Counts each drifted plan in ``plans_drifted``; when at least one
        plan drifted, counts one ``replans_triggered``, drops every
        drifted plan from the cache, and then either refits the engine
        on ``refit_history`` (when given) or bumps the statistics
        version.  A bump invalidates every cached plan.  A refit
        re-certifies only the un-drifted ones (see :meth:`refit`): a
        drifted plan was seen misbehaving live, so it is always planned
        again.  Returns the per-plan reports (keyed by fingerprint
        digest) computed *before* invalidation.
        """
        if not self._profiling:
            raise ServiceError(
                "check_drift requires the service to be built with "
                "profiling=True"
            )
        reports = self.drift_reports()
        drifted = {
            digest: report
            for digest, report in reports.items()
            if report.drifted
        }
        for digest, report in drifted.items():
            self._metrics.counter("plans_drifted").increment()
            if self._tracer is not None:
                self._tracer.emit(
                    "replan",
                    fingerprint=digest,
                    reason="profile-drift",
                    drift_score=report.normalized,
                    cost_ratio=report.cost_ratio,
                )
        if drifted:
            self._metrics.counter("replans_triggered").increment()
            for fingerprint in self._profiles:
                if str(fingerprint) in drifted:
                    self._cache.discard(fingerprint)
            if refit_history is not None:
                self.refit(refit_history)
            else:
                self._engine.bump_statistics_version()
        return reports

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Point-in-time service snapshot: cache, counters, latencies."""
        cache_stats = self._cache.stats()
        self._metrics.gauge("cache_size").set(cache_stats.size)
        self._metrics.gauge("statistics_version").set(
            self._engine.statistics_version
        )
        self._metrics.gauge("profiled_plans").set(len(self._profiles))
        metrics = self._metrics.snapshot()
        return {
            "statistics_version": self._engine.statistics_version,
            "cache_enabled": self._cache_enabled,
            "profiling": self._profiling,
            "cache": cache_stats.as_dict(),
            "counters": metrics["counters"],
            "gauges": metrics["gauges"],
            "labeled_counters": metrics["labeled_counters"],
            "latency": metrics["histograms"],
        }
