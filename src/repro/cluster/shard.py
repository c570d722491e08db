"""Shard-local request handling: one service, one cache, one owner.

:class:`ShardServer` wraps a private
:class:`~repro.service.AcquisitionalService` (engine + plan cache +
metrics registry + optional profiling) and speaks the message protocol
of :mod:`repro.cluster.messages`.  The same class backs both the
multiprocessing worker loop (:mod:`repro.cluster.worker`) and the
in-process backend the deterministic tests drive, and both hand each
drained run of messages to the one :meth:`ShardServer.handle` loop, so
every behaviour the cluster promises — chaos, tracing, version sync,
an answer for every request of a batch that raises — is testable
without spawning processes.

The shard does no coalescing of its own: the front door's
:class:`~repro.cluster.coalesce.CoalescingMap` already merged identical
in-flight requests before they crossed the boundary.  Each request of a
drained batch becomes one :class:`~repro.service.Request`, and the whole
batch goes through one :meth:`~repro.service.AcquisitionalService.serve`
call: plain requests sharing a fingerprint execute in one stacked
vectorized pass, a failing request becomes its own error reply, and
nothing runs twice.  The service charges every successful request's
Eq. 3 total cost to its ``acquisition_cost_total`` gauge, the recorded
side of the trace-vs-ledger conservation check in
:mod:`repro.obs.waterfall`.

Chaos determinism: a faulted request's RNG is seeded from
``(fault_seed, fingerprint, readings hash)`` only — never from batch
composition — so a request's outcome is byte-identical whether it was
served alone, coalesced, or re-routed after an outage.  Both the
fingerprint and the readings hash are read from the request; the shard
computes them only for a request built without them.

Tracing (``ShardConfig.tracing``): the shard owns a name-prefixed
:class:`~repro.obs.trace.Tracer` (``shard0``, ``shard1``, …) shared with
its service.  Every request gets a ``shard-execute`` span parented under
the front door's request span, opened before the batch's ``serve`` call
and closed after it, and annotated with that request's own Eq. 3 result
fields.  The span is the request's trace parent, so the service's events
for it (cache, plan, verify, execute) hang under it and ride back on its
reply as :class:`~repro.obs.trace.TraceEvent` records, followed by the
span's own closing event; the shard never encodes a span, the front
door's tracer writes each record out.  A stacked pass shared by several
requests reports its one ``execute`` event under the first of them.
"""

from __future__ import annotations

import logging
from contextlib import AbstractContextManager, nullcontext
from functools import partial
from typing import Any, Callable, Iterable

import numpy as np

from repro.cluster.coalesce import readings_key
from repro.cluster.hashring import stable_hash
from repro.cluster.messages import (
    ControlReply,
    ControlRequest,
    ExecuteReply,
    ExecuteRequest,
    ShardConfig,
)
from repro.engine.engine import AcquisitionalEngine
from repro.exceptions import ClusterError, ReproError
from repro.obs.trace import Span, TraceContext, TraceEvent, Tracer
from repro.planning.registry import planner_by_name
from repro.service.service import (
    AcquisitionalService,
    FaultContext,
    Outcome,
    Request,
)

__all__ = ["ShardServer"]

logger = logging.getLogger("repro.cluster")

_SEED_MASK = (1 << 32) - 1


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
            planner_factory=partial(
                planner_by_name, config.planner, max_splits=config.max_splits
            ),
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

    def handle(
        self, messages: Iterable[object]
    ) -> list[ExecuteReply | ControlReply]:
        """Answer a drained run of messages, replies in arrival order.

        Control messages split the execute requests around them, so a
        ``sync_version`` applies between batches the way the front door
        observed them; each batch is served in chunks of at most
        ``batch_window`` requests.  A chunk that raises is answered with
        one error reply per request, so every waiter resolves.  Nothing
        after a ``shutdown`` is served.
        """
        replies: list[ExecuteReply | ControlReply] = []
        executes: list[ExecuteRequest] = []
        for message in messages:
            if isinstance(message, ExecuteRequest):
                executes.append(message)
            elif isinstance(message, ControlRequest):
                replies.extend(self._serve(executes))
                executes = []
                replies.append(self.handle_control(message))
                if message.kind == "shutdown":
                    return replies
        replies.extend(self._serve(executes))
        return replies

    def _serve(self, requests: list[ExecuteRequest]) -> list[ExecuteReply]:
        replies: list[ExecuteReply] = []
        window = self._config.batch_window
        for start in range(0, len(requests), window):
            chunk = requests[start : start + window]
            try:
                replies.extend(self.handle_batch(chunk))
            except Exception as error:  # noqa: BLE001 - must answer every future
                logger.exception("shard %d: a batch raised", self.shard_id)
                version = self.service.engine.statistics_version
                replies.extend(
                    ExecuteReply(
                        request_id=request.request_id,
                        shard=self.shard_id,
                        ok=False,
                        error=f"{type(error).__name__}: {error}",
                        statistics_version=version,
                    )
                    for request in chunk
                )
        return replies

    # ------------------------------------------------------------------
    # Execute path
    # ------------------------------------------------------------------

    def handle_batch(
        self, requests: list[ExecuteRequest]
    ) -> list[ExecuteReply]:
        """Serve a drained batch through one :meth:`~repro.service.
        AcquisitionalService.serve` call, one reply per request (plain
        requests sharing a fingerprint execute in one stacked pass)."""
        tracer = self.tracer
        spans: list[Span | None] = [None] * len(requests)
        outcomes: dict[int, Outcome] = {}
        pending: dict[int, Request] = {}
        for position, request in enumerate(requests):
            try:
                context = None
                if tracer is not None:
                    span = spans[position] = self._open_span(request)
                    context = span.context()
                pending[position] = self._request(request, context)
            except ReproError as error:
                outcomes[position] = Outcome(error=error)
            except KeyError as error:  # an unknown degradation mode
                outcomes[position] = Outcome(error=ClusterError(str(error)))

        collecting: AbstractContextManager[list[TraceEvent]] = (
            tracer.collect() if tracer is not None else nullcontext([])
        )
        with collecting as events:
            served = self.service.serve(list(pending.values()))
        outcomes.update(zip(pending, served))
        # A request's service events hang under its span: they ride on
        # its reply, ahead of the span's own closing event.
        exports: dict[str, list[TraceEvent]] = {
            span.span_id: [] for span in spans if span is not None
        }
        for event in events:
            if event.parent in exports:
                exports[event.parent].append(event)

        version = self.service.engine.statistics_version
        replies: list[ExecuteReply] = []
        for position, (request, span) in enumerate(zip(requests, spans)):
            outcome = outcomes[position]
            ok, payload = outcome.error is None, outcome.result
            error = "" if ok else str(outcome.error)
            records: tuple[TraceEvent, ...] = ()
            if span is not None:
                fields = payload.trace_fields() if payload is not None else {}
                span.annotate(ok=ok, **fields)
                if error:
                    span.annotate(error=error)
                closing = span.end()
                closed = (closing,) if closing is not None else ()
                records = (*exports[span.span_id], *closed)
            replies.append(
                ExecuteReply(
                    request_id=request.request_id,
                    shard=self.shard_id,
                    ok=ok,
                    payload=payload,
                    error=error,
                    statistics_version=version,
                    expected_where_cost=(
                        0.0 if outcome.prepared is None
                        else outcome.prepared.expected_where_cost
                    ),
                    spans=records,
                )
            )
        return replies

    def _digest(self, request: ExecuteRequest) -> str:
        """The routed fingerprint, or this shard's own for a keyless request."""
        return request.fingerprint or str(self.service.fingerprint(request.text))

    def _open_span(self, request: ExecuteRequest) -> Span:
        """A request's ``shard-execute`` span, parented under its wire
        context and annotated with shard and queue delay."""
        tracer = self.tracer
        assert tracer is not None
        context = request.trace or TraceContext("")
        fields: dict[str, Any] = {"shard": self.shard_id}
        sent = context.baggage_value("sent_ts")
        if sent:
            try:
                fields["queue_ms"] = round(
                    max(0.0, (tracer.now() - float(sent)) * 1e3), 3
                )
            except ValueError:
                pass
        return tracer.start_span(
            "shard-execute",
            trace=context.trace_id,
            parent=context.parent_span,
            fingerprint=self._digest(request),
            **fields,
        )

    def _request(
        self, request: ExecuteRequest, trace: TraceContext | None
    ) -> Request:
        """The service request for one wire request.

        A faulted request's RNG is seeded from ``(fault_seed,
        fingerprint, readings hash)`` only, so its injection stream does
        not depend on how the batch was composed.
        """
        if request.fault_schedule is None:
            return Request(request.text, request.readings, trace=trace)
        from repro.faults.model import FaultSchedule
        from repro.faults.policy import DegradationMode, FaultPolicy, RetryPolicy

        window = request.readings_key or readings_key(request.readings)
        faults = FaultContext(
            FaultSchedule.from_dict(
                dict(request.fault_schedule), self._config.schema
            ),
            np.random.default_rng(
                [
                    request.fault_seed & _SEED_MASK,
                    stable_hash(self._digest(request)) & _SEED_MASK,
                    stable_hash(window) & _SEED_MASK,
                ]
            ),
            FaultPolicy(
                retry=RetryPolicy(max_retries=request.max_retries),
                degradation=DegradationMode[request.degradation.upper()],
            ),
        )
        return Request(request.text, request.readings, faults, trace)

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
