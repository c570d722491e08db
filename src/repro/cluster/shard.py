"""Shard-local request handling: one service, one cache, one owner.

:class:`ShardServer` wraps a private
:class:`~repro.service.AcquisitionalService` (engine + plan cache +
metrics registry + optional profiling) and speaks the message protocol
of :mod:`repro.cluster.messages`.  The same class backs both the
multiprocessing worker loop (:mod:`repro.cluster.worker`) and the
in-process backend the deterministic tests drive, so every behaviour the
cluster promises — coalescing, chaos, version sync — is testable without
spawning processes.

Coalescing happens *again* at the shard even though the front door
already merges identical in-flight requests: a batch drained from the
queue may contain same-shape requests the front door admitted before the
first reply landed.  Identical ``(fingerprint, readings)`` pairs execute
once and fan out; distinct readings under one fingerprint go through the
service's vectorized batch path.

Chaos determinism: a faulted group's RNG is seeded from
``(fault_seed, fingerprint, readings)`` only — never from batch
composition — so a request's outcome is byte-identical whether it was
served alone, coalesced, or re-routed after an outage.

Tracing (``ShardConfig.tracing``): the shard owns a name-prefixed
:class:`~repro.obs.trace.Tracer` (``shard0``, ``shard1``, …) shared with
its service, wraps every group's execution in a ``shard-execute`` span
parented under the front door's request span, and piggybacks the
collected span records on the group leader's reply.  Plain groups keep
the stacked vectorized pass even when traced — one span per group is
opened around the shared batch and annotated with that group's own
Eq. 3 result fields, so tracing does not forfeit the batch throughput
(the overhead benchmark holds it to <10%); the batch's flat service
events (cache hits, plan builds) ride along once, on the first group's
leader reply.  Faulted groups execute one at a time with the service's
events nested under their span.  Every successful group's Eq. 3 total
cost is also added to the ``acquisition_cost_total`` gauge — the
recorded side of the trace-vs-ledger conservation check in
:mod:`repro.obs.waterfall`.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Callable

import numpy as np

from repro.cluster.hashring import stable_hash
from repro.cluster.messages import (
    ControlReply,
    ControlRequest,
    ExecuteReply,
    ExecuteRequest,
    ShardConfig,
)
from repro.engine.engine import (
    AcquisitionalEngine,
    PlannerFactory,
    QueryResult,
    ResilientQueryResult,
)
from repro.exceptions import ClusterError, ReproError
from repro.obs.trace import Tracer
from repro.planning.base import Planner
from repro.planning.corrseq import CorrSeqPlanner
from repro.planning.greedy_conditional import GreedyConditionalPlanner
from repro.planning.greedy_sequential import GreedySequentialPlanner
from repro.planning.naive import NaivePlanner
from repro.planning.optimal_sequential import OptimalSequentialPlanner
from repro.probability.empirical import EmpiricalDistribution
from repro.service.service import AcquisitionalService

__all__ = ["ShardServer", "readings_key"]

_SEED_MASK = (1 << 32) - 1


def _result_fields(payload: object) -> dict[str, Any]:
    """Span attribution for one execution outcome (Eq. 3 quantities).

    ``retry_cost`` is reported as an annotation only — it is already a
    slice of ``where_cost`` (see :class:`~repro.engine.engine.
    ResilientQueryResult`), so the waterfall's attributed side sums
    ``where_cost + projection_cost`` exactly like the shard's ledger
    gauge records ``total_cost``.
    """
    if isinstance(payload, ResilientQueryResult):
        result = payload.result
        return {
            "rows": len(result.rows),
            "tuples": result.tuples_scanned,
            "where_cost": result.where_cost,
            "projection_cost": result.projection_cost,
            "retry_cost": payload.retry_cost,
            "failed": payload.acquisitions_failed,
            "retries": payload.retries_total,
            "degraded": payload.tuples_degraded,
            "abstained": payload.tuples_abstained,
        }
    if isinstance(payload, QueryResult):
        return {
            "rows": len(payload.rows),
            "tuples": payload.tuples_scanned,
            "where_cost": payload.where_cost,
            "projection_cost": payload.projection_cost,
        }
    return {}


def readings_key(readings: np.ndarray) -> str:
    """A content hash of a readings matrix (shape + dtype + bytes).

    Two requests coalesce only when their fingerprints *and* readings
    agree — same query over different windows must execute separately.
    """
    matrix = np.ascontiguousarray(readings)
    header = f"{matrix.shape}:{matrix.dtype.str}:".encode()
    return hashlib.sha256(header + matrix.tobytes()).hexdigest()[:16]


def _planner_factory(config: ShardConfig) -> PlannerFactory:
    """Build the engine's planner factory from a picklable planner name."""
    name = config.planner
    max_splits = config.max_splits

    def factory(distribution: EmpiricalDistribution) -> Planner:
        if name == "naive":
            return NaivePlanner(distribution)
        if name == "greedy-seq":
            return GreedySequentialPlanner(distribution)
        if name == "opt-seq":
            return OptimalSequentialPlanner(distribution)
        if name == "corr-seq":
            return CorrSeqPlanner(distribution)
        return GreedyConditionalPlanner(
            distribution, CorrSeqPlanner(distribution), max_splits=max_splits
        )

    return factory


class ShardServer:
    """One shard's synchronous request handler (single-owner access).

    The service, plan cache, and metrics registry are owned exclusively
    by this server; in the process backend that ownership is physical
    (separate address spaces), in the in-process backend it is enforced
    by the front door serializing calls per shard.
    """

    def __init__(
        self,
        shard_id: int,
        config: ShardConfig,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.shard_id = int(shard_id)
        self._config = config
        self.tracer: Tracer | None = None
        if config.tracing:
            # The shard-id prefix keeps span ids globally unique in the
            # merged trace file; ``clock`` (in-process backend only)
            # makes traces byte-reproducible under test.  Without an
            # injected clock the Tracer's own allowlisted default
            # applies — this module must not name a wall clock (DET002).
            # ``capacity=0``: a shard tracer exists to mint ids and feed
            # span export (``Span.end`` returns / ``collect()`` buckets
            # capture the events) — its in-memory buffer is unreadable
            # from outside a worker process, and retaining thousands of
            # event objects only feeds GC sweeps on the serving path.
            name = f"shard{self.shard_id}"
            if clock is not None:
                self.tracer = Tracer(name=name, clock=clock, capacity=0)
            else:
                self.tracer = Tracer(name=name, capacity=0)
        engine = AcquisitionalEngine(
            config.schema,
            config.history,
            planner_factory=_planner_factory(config),
            smoothing=config.smoothing,
        )
        self.service = AcquisitionalService(
            engine,
            cache_capacity=config.cache_capacity,
            cache_policy=config.cache_policy,
            verify_admission=config.verify_admission,
            profiling=config.profiling,
            tracer=self.tracer,
        )

    # ------------------------------------------------------------------
    # Execute path
    # ------------------------------------------------------------------

    def handle_batch(
        self, requests: list[ExecuteRequest]
    ) -> list[ExecuteReply]:
        """Serve a drained batch with shard-level coalescing.

        Requests are grouped by ``(fingerprint, readings, fault key)``;
        each group executes exactly once and its reply payload is shared
        by every member (results are immutable).  Plain groups sharing a
        fingerprint additionally execute through the service's stacked
        vectorized pass.
        """
        groups: dict[tuple, list[ExecuteRequest]] = {}
        order: list[tuple] = []
        digests: dict[tuple, str] = {}
        for request in requests:
            digest = request.fingerprint or str(
                self.service.fingerprint(request.text)
            )
            fault_key = None
            if request.fault_schedule is not None:
                fault_key = (
                    repr(sorted(request.fault_schedule.items())),
                    request.fault_seed,
                    request.degradation,
                    request.max_retries,
                )
            key = (digest, readings_key(request.readings), fault_key)
            if key not in groups:
                groups[key] = []
                order.append(key)
                digests[key] = digest
            groups[key].append(request)

        payloads: dict[tuple, tuple[bool, object, str, float]] = {}
        exported: dict[tuple, tuple[str, ...]] = {}
        plain = [key for key in order if key[2] is None]
        faulted = [key for key in order if key[2] is not None]
        with self.service._recording_served() as served:
            if self.tracer is None:
                if plain:
                    payloads.update(self._execute_plain(plain, groups))
                for key in faulted:
                    payloads[key] = self._execute_faulted(
                        groups[key][0], digests[key], key
                    )
            else:
                if plain:
                    outcomes, spans = self._execute_plain_traced(
                        plain, groups, digests
                    )
                    payloads.update(outcomes)
                    exported.update(spans)
                for key in faulted:
                    payloads[key], exported[key] = self._execute_traced(
                        key, groups[key], digests[key]
                    )

        replies: list[ExecuteReply] = []
        version = self.service.engine.statistics_version
        ledger = self.service.metrics.gauge("acquisition_cost_total")
        for key in order:
            ok, payload, error, elapsed = payloads[key]
            members = groups[key]
            expected = 0.0
            if ok:
                # The Eq. 3 expectation of the plan that served the group.
                expected = served[digests[key]].expected_where_cost
                # Every executed group charges its Eq. 3 total exactly
                # once — the recorded side of the trace-vs-ledger
                # conservation check (repro.obs.waterfall).
                result = (
                    payload.result
                    if isinstance(payload, ResilientQueryResult)
                    else payload
                )
                if isinstance(result, QueryResult):
                    ledger.increment(result.total_cost)
            leader = members[0]
            trace_id = (
                leader.trace.trace_id if leader.trace is not None else ""
            )
            spans = exported.get(key, ())
            for request in members:
                replies.append(
                    ExecuteReply(
                        request_id=request.request_id,
                        shard=self.shard_id,
                        ok=ok,
                        payload=payload,
                        error=error,
                        statistics_version=version,
                        group_size=len(members),
                        expected_where_cost=expected,
                        elapsed_seconds=elapsed,
                        trace_id=trace_id,
                        spans=spans if request is leader else (),
                    )
                )
        order_index = {
            request.request_id: position
            for position, request in enumerate(requests)
        }
        replies.sort(key=lambda reply: order_index[reply.request_id])
        return replies

    def _execute_plain(
        self,
        keys: list[tuple],
        groups: dict[tuple, list[ExecuteRequest]],
    ) -> dict[tuple, tuple[bool, object, str, float]]:
        """One stacked vectorized pass over every unique plain group."""
        start = time.perf_counter()
        unique = [
            (groups[key][0].text, groups[key][0].readings) for key in keys
        ]
        outcomes: dict[tuple, tuple[bool, object, str, float]] = {}
        try:
            results = self.service.execute_batch(unique)
        except ReproError as error:
            # Batch-level failure (e.g. a malformed statement): fall back
            # to per-group execution so one bad request cannot poison the
            # whole drained batch.
            for key in keys:
                outcomes[key] = self._execute_one(groups[key][0])
            del error
            return outcomes
        elapsed = time.perf_counter() - start
        for key, result in zip(keys, results):
            outcomes[key] = (True, result, "", elapsed)
        return outcomes

    def _group_span_fields(
        self, request: ExecuteRequest, group_size: int
    ) -> dict[str, Any]:
        """The shard/group/queue-delay annotations every group span carries."""
        tracer = self.tracer
        assert tracer is not None
        fields: dict[str, Any] = {
            "shard": self.shard_id,
            "group_size": group_size,
        }
        context = request.trace
        if context is not None:
            sent = context.baggage_value("sent_ts")
            if sent:
                try:
                    fields["queue_ms"] = round(
                        max(0.0, (tracer.now() - float(sent)) * 1e3), 3
                    )
                except ValueError:
                    pass
        return fields

    def _execute_plain_traced(
        self,
        keys: list[tuple],
        groups: dict[tuple, list[ExecuteRequest]],
        digests: dict[tuple, str],
    ) -> tuple[
        dict[tuple, tuple[bool, object, str, float]],
        dict[tuple, tuple[str, ...]],
    ]:
        """The stacked vectorized pass with one exported span per group.

        Tracing must not forfeit batching: every plain group still
        executes through the service's shared cross-fingerprint pass,
        and each group gets its own ``shard-execute`` span — opened
        before the pass, closed after it (``ms`` therefore measures the
        shared batch), annotated with that group's *own* result fields
        so the Eq. 3 reconciliation stays exact per trace.  The batch's
        flat service events (cache hits/misses, plan builds) cannot be
        attributed to a single trace and would never leave the
        shard-local buffer, so :meth:`AcquisitionalService.
        quiet_tracing` suppresses them outright — the merged file
        carries the span tree, the metrics counters carry the cache
        hit/miss tallies.
        """
        tracer = self.tracer
        assert tracer is not None
        spans: dict[tuple, Any] = {}
        for key in keys:
            leader = groups[key][0]
            context = leader.trace
            spans[key] = tracer.start_span(
                "shard-execute",
                trace=context.trace_id if context is not None else "",
                parent=context.parent_span if context is not None else "",
                fingerprint=digests[key],
                batched=len(keys),
                **self._group_span_fields(leader, len(groups[key])),
            )
        with self.service.quiet_tracing():
            outcomes = self._execute_plain(keys, groups)
        exported: dict[tuple, tuple[str, ...]] = {}
        for key in keys:
            ok, payload, error, _elapsed = outcomes[key]
            span = spans[key]
            span.annotate(ok=ok, **_result_fields(payload))
            if error:
                span.annotate(error=error)
            closing = span.end()
            exported[key] = (closing.to_json(),) if closing is not None else ()
        return outcomes, exported

    def _execute_one(
        self, request: ExecuteRequest
    ) -> tuple[bool, object, str, float]:
        """Serve a single plain group through the service."""
        start = time.perf_counter()
        try:
            result = self.service.execute(request.text, request.readings)
        except ReproError as error:
            return False, None, str(error), time.perf_counter() - start
        return True, result, "", time.perf_counter() - start

    def _execute_traced(
        self,
        key: tuple,
        members: list[ExecuteRequest],
        digest: str,
    ) -> tuple[tuple[bool, object, str, float], tuple[str, ...]]:
        """Serve one faulted group under a ``shard-execute`` span.

        The span is parented under the leader's wire
        :class:`~repro.obs.trace.TraceContext`; every service-level event
        the execution emits (plan / verify / cache-* / execute) nests
        under it via the tracer's context binding.  The collected events
        come back as plain dicts ready to piggyback on the reply.
        """
        tracer = self.tracer
        assert tracer is not None
        leader = members[0]
        context = leader.trace
        trace_id = context.trace_id if context is not None else ""
        parent = context.parent_span if context is not None else ""
        fields = self._group_span_fields(leader, len(members))
        with tracer.collect() as events:
            with tracer.span(
                "shard-execute",
                trace=trace_id,
                parent=parent,
                fingerprint=digest,
                **fields,
            ) as span:
                outcome = self._execute_faulted(leader, digest, key)
                ok, payload, error, _elapsed = outcome
                span.annotate(ok=ok, **_result_fields(payload))
                if error:
                    span.annotate(error=error)
        return outcome, tuple(event.to_json() for event in events)

    def _execute_faulted(
        self, request: ExecuteRequest, digest: str, key: tuple
    ) -> tuple[bool, object, str, float]:
        """Chaos path: deterministic per-(shape, readings) injection."""
        from repro.faults.model import FaultSchedule
        from repro.faults.policy import DegradationMode, FaultPolicy, RetryPolicy

        start = time.perf_counter()
        try:
            schedule = FaultSchedule.from_dict(
                dict(request.fault_schedule or {}), self._config.schema
            )
            policy = FaultPolicy(
                retry=RetryPolicy(max_retries=request.max_retries),
                degradation=DegradationMode[request.degradation.upper()],
            )
            rng = np.random.default_rng(
                [
                    request.fault_seed & _SEED_MASK,
                    stable_hash(digest) & _SEED_MASK,
                    stable_hash(key[1]) & _SEED_MASK,
                ]
            )
            outcome = self.service.execute_resilient(
                request.text, request.readings, schedule, rng, policy=policy
            )
        except (ReproError, KeyError) as error:
            return False, None, str(error), time.perf_counter() - start
        return True, outcome, "", time.perf_counter() - start

    # ------------------------------------------------------------------
    # Control path
    # ------------------------------------------------------------------

    def handle_control(self, request: ControlRequest) -> ControlReply:
        if request.kind == "ping":
            payload = {}
        elif request.kind == "stats":
            payload = {
                "stats": self.service.stats(),
                "metrics": self.service.metrics.snapshot(),
            }
        elif request.kind == "sync_version":
            payload = {"bumps": self.sync_version(request.version)}
        elif request.kind == "shutdown":
            payload = {}
        else:  # pragma: no cover - constructor validates kinds
            raise ClusterError(f"unhandled control kind {request.kind!r}")
        return ControlReply(
            request_id=request.request_id,
            shard=self.shard_id,
            kind=request.kind,
            statistics_version=self.service.engine.statistics_version,
            payload=payload,
        )

    def sync_version(self, version: int) -> int:
        """Advance this shard's statistics generation to ``>= version``.

        Each bump drops the shard's stale cached plans (the engine
        notifies the service, which invalidates the cache) — this is the
        receiving side of the cross-shard invalidation broadcast.
        Returns the number of bumps applied.
        """
        bumps = 0
        engine = self.service.engine
        while engine.statistics_version < version:
            engine.bump_statistics_version()
            bumps += 1
        return bumps
