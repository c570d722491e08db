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
first reply landed.  Identical ``(fingerprint, readings, fault key)``
requests form one group that executes once and fans out.  Each group
becomes one :class:`~repro.service.Request`, and the whole batch goes
through one :meth:`~repro.service.AcquisitionalService.serve` call: plain
groups sharing a fingerprint execute in one stacked vectorized pass, a
failing group becomes that group's error reply, and nothing runs twice.
The service charges every successful group's Eq. 3 total cost to its
``acquisition_cost_total`` gauge, the recorded side of the
trace-vs-ledger conservation check in :mod:`repro.obs.waterfall`.

Chaos determinism: a faulted group's RNG is seeded from
``(fault_seed, fingerprint, readings)`` only — never from batch
composition — so a request's outcome is byte-identical whether it was
served alone, coalesced, or re-routed after an outage.

Tracing (``ShardConfig.tracing``): the shard owns a name-prefixed
:class:`~repro.obs.trace.Tracer` (``shard0``, ``shard1``, …) shared with
its service.  Every group gets a ``shard-execute`` span parented under
the front door's request span, opened before the batch's ``serve`` call
and closed after it, and annotated with that group's own Eq. 3 result
fields.  The span is the group's request's trace parent, so the
service's events for it (cache, plan, verify, execute) hang under it.
They ride back on the group leader's reply, followed by the span's own
closing event.  A stacked pass shared by several groups reports its one
``execute`` event under the first of them.
"""

from __future__ import annotations

import hashlib
from contextlib import AbstractContextManager, nullcontext
from dataclasses import replace
from functools import partial
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

__all__ = ["ShardServer", "readings_key"]

_SEED_MASK = (1 << 32) - 1


def readings_key(readings: np.ndarray) -> str:
    """A content hash of a readings matrix (shape + dtype + bytes).

    Two requests coalesce only when their fingerprints *and* readings
    agree — same query over different windows must execute separately.
    """
    matrix = np.ascontiguousarray(readings)
    header = f"{matrix.shape}:{matrix.dtype.str}:".encode()
    return hashlib.sha256(header + matrix.tobytes()).hexdigest()[:16]


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

    # ------------------------------------------------------------------
    # Execute path
    # ------------------------------------------------------------------

    def handle_batch(
        self, requests: list[ExecuteRequest]
    ) -> list[ExecuteReply]:
        """Serve a drained batch with shard-level coalescing.

        Requests are grouped by ``(fingerprint, readings, fault key)``;
        each group becomes one :class:`~repro.service.Request`, the
        service serves them all in one :meth:`~repro.service.
        AcquisitionalService.serve` call (plain groups sharing a
        fingerprint execute in one stacked pass), and each group's
        outcome is shared by every member (results are immutable).
        """
        groups: dict[tuple, list[ExecuteRequest]] = {}
        keys: list[tuple] = []
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
            groups.setdefault(key, []).append(request)
            keys.append(key)

        tracer = self.tracer
        spans: dict[tuple, Span] = {}
        pending: dict[tuple, Request] = {}
        outcomes: dict[tuple, Outcome] = {}
        for key, members in groups.items():
            context = None
            if tracer is not None:
                spans[key] = self._open_span(members, key[0])
                context = spans[key].context()
            try:
                pending[key] = self._request(members[0], key, context)
            except ReproError as error:
                outcomes[key] = Outcome(error=error)
            except KeyError as error:  # an unknown degradation mode
                outcomes[key] = Outcome(error=ClusterError(str(error)))

        collecting: AbstractContextManager[list[TraceEvent]] = (
            tracer.collect() if tracer is not None else nullcontext([])
        )
        with collecting as events:
            served = self.service.serve(list(pending.values()))
        outcomes.update(zip(pending, served))
        # A group's service events hang under its span: they ride on the
        # leader's reply, ahead of the span's own closing event.
        exports: dict[str, list[str]] = {
            span.span_id: [] for span in spans.values()
        }
        for event in events:
            if event.parent in exports:
                exports[event.parent].append(event.to_json())

        version = self.service.engine.statistics_version
        leaders: dict[tuple, ExecuteReply] = {}
        for key, members in groups.items():
            outcome = outcomes[key]
            ok, payload = outcome.error is None, outcome.result
            error = "" if ok else str(outcome.error)
            lines: tuple[str, ...] = ()
            span = spans.get(key)
            if span is not None:
                fields = payload.trace_fields() if payload is not None else {}
                span.annotate(ok=ok, **fields)
                if error:
                    span.annotate(error=error)
                closing = span.end()
                closed = (closing.to_json(),) if closing is not None else ()
                lines = (*exports[span.span_id], *closed)
            trace = members[0].trace
            leaders[key] = ExecuteReply(
                request_id=members[0].request_id,
                shard=self.shard_id,
                ok=ok,
                payload=payload,
                error=error,
                statistics_version=version,
                group_size=len(members),
                expected_where_cost=(
                    0.0 if outcome.prepared is None
                    else outcome.prepared.expected_where_cost
                ),
                trace_id=trace.trace_id if trace is not None else "",
                spans=lines,
            )
        # A follower's reply is its leader's, minus the exported spans.
        return [
            leaders[key]
            if request is groups[key][0]
            else replace(leaders[key], request_id=request.request_id, spans=())
            for request, key in zip(requests, keys)
        ]

    def _open_span(self, members: list[ExecuteRequest], digest: str) -> Span:
        """A group's ``shard-execute`` span, parented under its leader's
        wire context and annotated with shard, group and queue delay."""
        tracer = self.tracer
        assert tracer is not None
        context = members[0].trace or TraceContext("")
        fields: dict[str, Any] = {
            "shard": self.shard_id,
            "group_size": len(members),
        }
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
            fingerprint=digest,
            **fields,
        )

    def _request(
        self,
        request: ExecuteRequest,
        key: tuple,
        trace: TraceContext | None,
    ) -> Request:
        """The service request for one group.

        A faulted group's RNG is seeded from ``(fault_seed, fingerprint,
        readings)`` only, so its injection stream does not depend on how
        the batch was composed.
        """
        if request.fault_schedule is None:
            return Request(request.text, request.readings, trace=trace)
        from repro.faults.model import FaultSchedule
        from repro.faults.policy import DegradationMode, FaultPolicy, RetryPolicy

        faults = FaultContext(
            FaultSchedule.from_dict(
                dict(request.fault_schedule), self._config.schema
            ),
            np.random.default_rng(
                [
                    request.fault_seed & _SEED_MASK,
                    stable_hash(key[0]) & _SEED_MASK,
                    stable_hash(key[1]) & _SEED_MASK,
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
