"""The asyncio front door of the sharded serving tier.

One :class:`ShardedServiceCluster` owns the whole topology:

- a :class:`~repro.cluster.hashring.ConsistentHashRing` routing each
  statement's canonical fingerprint digest to a shard, so every spelling
  of a query shape lands on the same shard-local plan cache;
- N shard workers — real ``multiprocessing`` processes (``"process"``
  backend) or in-loop :class:`~repro.cluster.shard.ShardServer` objects
  (``"inproc"`` backend, used by deterministic tests and available for
  single-process deployments);
- a :class:`~repro.cluster.coalesce.CoalescingMap` merging identical
  in-flight requests *before* they cross the shard boundary: one
  execution is acquired and planned once and fans out to every waiter;
- an :class:`~repro.cluster.admission.AdmissionController` shedding
  load under overload with the PR 5 degradation vocabulary;
- a statistics-version broadcast bus: any reply showing a shard moved to
  a newer statistics generation (drift replan, outage invalidation,
  refit) makes the front door push ``sync_version`` to every other
  shard, so no stale plan survives anywhere in the cluster;
- shard-outage handling that re-routes (SKIP) or sheds (ABSTAIN) the
  dead shard's in-flight and future traffic, with the ring re-shrunk so
  surviving shards keep their warm caches;
- with ``ClusterConfig.tracing``, a front-door
  :class:`~repro.obs.trace.Tracer` rooting one ``request`` span per
  request, a :class:`~repro.obs.trace.TraceContext` on every dispatched
  wire record, ingestion of the span records shards piggyback on
  replies (one process ends up holding every request's whole tree), and
  an :class:`~repro.obs.slo.SLOTracker` feeding latency/error burn-rate
  counters into the front-door metrics registry.

Thread discipline: all mutable front-door state (coalescing map, warm
sets, counters) is touched only on the event loop.  The process
backend's reply-reader thread marshals every message onto the loop with
``call_soon_threadsafe`` before it is interpreted.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import threading
import time
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Callable, Mapping

import numpy as np

from repro.cluster.admission import AdmissionController
from repro.cluster.coalesce import CoalescingMap, InFlight, coalescing_key
from repro.cluster.hashring import ConsistentHashRing
from repro.cluster.messages import (
    ControlReply,
    ControlRequest,
    ExecuteReply,
    ExecuteRequest,
    ShardConfig,
)
from repro.cluster.shard import ShardServer
from repro.engine.engine import QueryResult, ResilientQueryResult
from repro.exceptions import (
    ClusterError,
    ShardUnavailableError,
)
from repro.faults.policy import DegradationMode
from repro.obs.exposition import render_prometheus
from repro.obs.slo import SLOPolicy, SLOTracker
from repro.obs.trace import Span, TraceContext, Tracer
from repro.service.fingerprint import StatementMemo, fingerprint_statement
from repro.service.metrics import (
    Counter,
    LatencyHistogram,
    MetricsRegistry,
    merge_snapshots,
)

__all__ = ["ClusterConfig", "ClusterResponse", "ShardedServiceCluster"]

logger = logging.getLogger("repro.cluster")

_SHED_MODES = {mode.value: mode for mode in DegradationMode}


@dataclass(frozen=True)
class ClusterConfig:
    """Topology and policy knobs for one sharded cluster.

    ``tracing`` turns on distributed tracing end to end: the front door
    roots one span tree per request and every shard config is promoted
    to ``tracing=True`` so shards export their spans on replies.
    ``trace_clock`` (in-process backend only — it is not picklable)
    injects one shared deterministic clock into the front-door tracer
    and every shard tracer, which is what makes whole-cluster traces
    byte-reproducible under test; process workers keep the tracer's
    default wall clock.  The ``slo_*`` knobs parameterize the
    :class:`~repro.obs.slo.SLOPolicy` the front door tracks against.
    """

    shard_config: ShardConfig
    shards: int = 4
    backend: str = "process"
    vnodes: int = 64
    coalescing: bool = True
    soft_limit: int = 256
    hard_limit: int = 1024
    max_shard_depth: int | None = None
    shed_mode: str = "abstain"
    outage_mode: str = "skip"
    request_timeout: float = 60.0
    control_timeout: float = 30.0
    tracing: bool = False
    trace_clock: Callable[[], float] | None = None
    slo_latency_ms: float = 250.0
    slo_latency_objective: float = 0.99
    slo_error_objective: float = 0.999

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ClusterError(f"shards must be >= 1, got {self.shards}")
        if self.backend not in ("process", "inproc"):
            raise ClusterError(
                f"backend must be 'process' or 'inproc', got {self.backend!r}"
            )
        if self.shed_mode not in _SHED_MODES:
            raise ClusterError(
                f"shed_mode must be one of {sorted(_SHED_MODES)}, "
                f"got {self.shed_mode!r}"
            )
        if self.outage_mode not in ("skip", "abstain"):
            raise ClusterError(
                f"outage_mode must be 'skip' or 'abstain', "
                f"got {self.outage_mode!r}"
            )
        if self.request_timeout <= 0 or self.control_timeout <= 0:
            raise ClusterError("timeouts must be positive")
        # SLOPolicy validates its own knobs; constructing it here turns a
        # bad config into an error at cluster-build time, not first use.
        self.slo_policy()

    def slo_policy(self) -> SLOPolicy:
        return SLOPolicy(
            latency_target_ms=self.slo_latency_ms,
            latency_objective=self.slo_latency_objective,
            error_objective=self.slo_error_objective,
        )


@dataclass(frozen=True)
class ClusterResponse:
    """What the front door hands back for one request.

    ``payload`` is the :class:`~repro.engine.QueryResult` (plain path)
    or :class:`~repro.engine.ResilientQueryResult` (chaos path) the
    owning shard produced, shared byte-for-byte by every coalesced
    waiter.  Shed requests carry ``shed=True`` and no payload — the
    admission controller never fabricates an answer.
    """

    ok: bool
    shard: int | None = None
    payload: Any = None
    coalesced: bool = False
    shed: bool = False
    shed_reason: str = ""
    error: str = ""
    #: The request's distributed trace id (tracing enabled only) — the
    #: key to look its span tree up in the merged trace file.
    trace_id: str = ""

    @property
    def result(self) -> QueryResult | None:
        """The plain rows/cost result regardless of execution path."""
        if isinstance(self.payload, ResilientQueryResult):
            return self.payload.result
        return self.payload


class _InProcessBackend:
    """Shard servers living on the event loop, batched per loop tick.

    ``send`` only queues; a ``call_soon`` pump hands everything queued
    for a shard to :meth:`~repro.cluster.shard.ShardServer.handle`, the
    loop the worker process drains through too — so requests submitted
    in the same tick coalesce and batch exactly like they would across
    the process boundary, deterministically.
    """

    def __init__(
        self,
        configs: dict[int, ShardConfig],
        clock: Callable[[], float] | None = None,
    ) -> None:
        self._configs = configs
        self._clock = clock
        self._servers: dict[int, ShardServer] = {}
        self._pending: dict[int, list[object]] = {}
        self._scheduled: set[int] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._on_message: Callable[[object], None] | None = None

    def start(
        self,
        loop: asyncio.AbstractEventLoop,
        on_message: Callable[[object], None],
    ) -> None:
        self._loop = loop
        self._on_message = on_message
        for shard_id, config in self._configs.items():
            self._servers[shard_id] = ShardServer(
                shard_id, config, clock=self._clock
            )
            self._pending[shard_id] = []

    def send(self, shard: int, message: object) -> None:
        server = self._servers.get(shard)
        if server is None:
            raise ShardUnavailableError(f"shard {shard} is down")
        self._pending[shard].append(message)
        if shard not in self._scheduled:
            self._scheduled.add(shard)
            assert self._loop is not None
            self._loop.call_soon(self._pump, shard)

    def _pump(self, shard: int) -> None:
        self._scheduled.discard(shard)
        server = self._servers.get(shard)
        batch = self._pending.get(shard, [])
        self._pending[shard] = []
        if server is None or not batch:
            return
        on_message = self._on_message
        assert on_message is not None  # set by start() before any send()
        for reply in server.handle(batch):
            on_message(reply)

    def alive(self, shard: int) -> bool:
        return shard in self._servers

    def kill(self, shard: int) -> None:
        self._servers.pop(shard, None)
        self._pending.pop(shard, None)

    def stop(self) -> None:
        self._servers.clear()
        self._pending.clear()


class _ProcessBackend:
    """One worker process per shard, each with its own reply channel.

    Reply queues are deliberately NOT shared: terminating a worker while
    its feeder thread holds a shared queue's pipe lock would corrupt the
    channel for every surviving shard (a classic ``multiprocessing.Queue``
    hazard).  With per-shard queues an induced outage can only damage the
    dead shard's own channel, which nobody reads afterwards.
    """

    def __init__(self, configs: dict[int, ShardConfig]) -> None:
        import multiprocessing

        self._configs = configs
        self._mp = multiprocessing.get_context()
        self._processes: dict[int, Any] = {}
        self._request_queues: dict[int, Any] = {}
        self._reply_queues: dict[int, Any] = {}
        self._readers: dict[int, threading.Thread] = {}
        self._dead: set[int] = set()
        self._stopping = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._on_message: Callable[[object], None] | None = None

    def start(
        self,
        loop: asyncio.AbstractEventLoop,
        on_message: Callable[[object], None],
    ) -> None:
        from repro.cluster.worker import worker_main

        self._loop = loop
        self._on_message = on_message
        for shard_id, config in self._configs.items():
            request_queue = self._mp.Queue()
            reply_queue = self._mp.Queue()
            process = self._mp.Process(
                target=worker_main,
                args=(shard_id, config, request_queue, reply_queue),
                daemon=True,
                name=f"repro-shard-{shard_id}",
            )
            process.start()
            self._request_queues[shard_id] = request_queue
            self._reply_queues[shard_id] = reply_queue
            self._processes[shard_id] = process
            reader = threading.Thread(
                target=self._read_replies,
                args=(shard_id, reply_queue),
                name=f"repro-cluster-replies-{shard_id}",
                daemon=True,
            )
            reader.start()
            self._readers[shard_id] = reader

    def _read_replies(self, shard: int, reply_queue: Any) -> None:
        import queue as queue_module

        on_message = self._on_message
        assert on_message is not None  # set by start() before threads spawn
        while not self._stopping.is_set() and shard not in self._dead:
            try:
                message = reply_queue.get(timeout=0.2)
            except queue_module.Empty:
                continue
            except (EOFError, OSError):  # channel torn down mid-shutdown
                break
            loop = self._loop
            if loop is not None and not loop.is_closed():
                loop.call_soon_threadsafe(on_message, message)

    def send(self, shard: int, message: object) -> None:
        queue = self._request_queues.get(shard)
        process = self._processes.get(shard)
        if (
            queue is None
            or process is None
            or shard in self._dead
            or not process.is_alive()
        ):
            raise ShardUnavailableError(f"shard {shard} is down")
        queue.put(message)

    def alive(self, shard: int) -> bool:
        process = self._processes.get(shard)
        return (
            process is not None
            and shard not in self._dead
            and process.is_alive()
        )

    def kill(self, shard: int) -> None:
        self._dead.add(shard)
        process = self._processes.pop(shard, None)
        self._request_queues.pop(shard, None)
        self._reply_queues.pop(shard, None)
        self._readers.pop(shard, None)  # exits on its next poll timeout
        if process is not None and process.is_alive():
            process.terminate()
            process.join(timeout=5.0)

    def stop(self) -> None:
        for shard_id, queue in list(self._request_queues.items()):
            process = self._processes.get(shard_id)
            if process is not None and process.is_alive():
                try:
                    queue.put(ControlRequest(request_id=-1, kind="shutdown"))
                except (ValueError, OSError):  # pragma: no cover
                    pass
        for process in self._processes.values():
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        self._stopping.set()
        for reader in self._readers.values():
            reader.join(timeout=2.0)
        self._processes.clear()
        self._request_queues.clear()
        self._reply_queues.clear()
        self._readers.clear()


class ShardedServiceCluster:
    """Consistent-hash sharded, coalescing, load-shedding serving tier."""

    def __init__(
        self, config: ClusterConfig, tracer: Tracer | None = None
    ) -> None:
        self._config = config
        shard_template = config.shard_config
        if config.tracing and not shard_template.tracing:
            shard_template = replace(shard_template, tracing=True)
        configs = {
            shard_id: shard_template for shard_id in range(config.shards)
        }
        if config.backend == "process":
            self._backend: Any = _ProcessBackend(configs)
        else:
            self._backend = _InProcessBackend(
                configs, clock=config.trace_clock
            )
        self._tracer: Tracer | None = tracer
        if self._tracer is None and config.tracing:
            # "fd" prefixes the front door's span/trace ids so they can
            # never collide with shard-minted ids in the merged file.
            if config.trace_clock is not None:
                self._tracer = Tracer(name="fd", clock=config.trace_clock)
            else:
                self._tracer = Tracer(name="fd")
        self._ring = ConsistentHashRing(
            range(config.shards), vnodes=config.vnodes
        )
        self._live: set[int] = set(range(config.shards))
        self._coalescer = CoalescingMap()
        self._admission = AdmissionController(
            soft_limit=config.soft_limit,
            hard_limit=config.hard_limit,
            max_shard_depth=config.max_shard_depth,
            shed_mode=_SHED_MODES[config.shed_mode],
        )
        self._metrics = MetricsRegistry()
        self._slo = SLOTracker(self._metrics, config.slo_policy())
        self._ids = itertools.count(1)
        self._cluster_version = 1
        self._warm: set[tuple[int, str]] = set()
        self._known_cost: dict[str, float] = {}
        self._control_pending: dict[int, asyncio.Future] = {}
        self._broadcast_tasks: set[asyncio.Task] = set()
        self._started = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._schema = config.shard_config.schema
        self._digests = StatementMemo(
            lambda text: str(fingerprint_statement(text, self._schema))
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Boot every shard and wait until all of them answer a ping."""
        if self._started:
            raise ClusterError("cluster already started")
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._backend.start(loop, self._on_message)
        self._started = True
        await asyncio.gather(
            *(
                self._control(shard, "ping")
                for shard in sorted(self._live)
            )
        )

    async def stop(self) -> None:
        """Shut the workers down and fail any still-pending futures."""
        if not self._started:
            return
        self._started = False
        for task in list(self._broadcast_tasks):
            task.cancel()
        # The process backend joins workers (up to seconds); run it off
        # the loop so concurrent traffic sees clean shutdown errors
        # instead of a frozen event loop (the ASY001 discipline, one
        # call deeper than the rule can see).
        await asyncio.get_running_loop().run_in_executor(
            None, self._backend.stop
        )
        for entry in self._coalescer.entries():
            if entry.timeout_handle is not None:
                entry.timeout_handle.cancel()
            for waiter in entry.waiters:
                if not waiter.done():
                    waiter.set_exception(
                        ShardUnavailableError("cluster stopped")
                    )
            self._coalescer.resolve(entry.request_id)
        for future in self._control_pending.values():
            if not future.done():
                future.set_exception(ShardUnavailableError("cluster stopped"))
        self._control_pending.clear()

    async def __aenter__(self) -> "ShardedServiceCluster":
        await self.start()
        return self

    async def __aexit__(self, *_exc: object) -> None:
        await self.stop()

    # The serving path's metrics, each bound on first use: the registry
    # lists a series from then on, as when it was looked up per request.
    @cached_property
    def _requests(self) -> Counter:
        return self._metrics.counter("requests")

    @cached_property
    def _dispatched(self) -> Counter:
        return self._metrics.counter("requests_dispatched")

    @cached_property
    def _latency(self) -> LatencyHistogram:
        return self._metrics.histogram("request")

    @property
    def live_shards(self) -> frozenset[int]:
        return frozenset(self._live)

    @property
    def tracer(self) -> Tracer | None:
        """The front-door tracer (holds the merged trace when enabled)."""
        return self._tracer

    @property
    def statistics_version(self) -> int:
        return self._cluster_version

    # ------------------------------------------------------------------
    # Serving path
    # ------------------------------------------------------------------

    async def execute(
        self,
        text: str,
        readings: np.ndarray,
        fault_schedule: Mapping[str, Any] | None = None,
        fault_seed: int = 0,
        degradation: str = "abstain",
        max_retries: int = 2,
    ) -> ClusterResponse:
        """Serve one statement through the sharded tier.

        Identical concurrent requests (same canonical fingerprint, same
        readings, same fault context) share a single shard execution.
        Overload returns a ``shed=True`` response rather than raising —
        shedding is an expected service answer, not an exception.
        """
        if not self._started:
            raise ClusterError("cluster is not started")
        if not self._live:
            raise ClusterError("every shard is down")
        self._requests.increment()
        start = time.perf_counter()
        tracer = self._tracer

        digest = self._digests.lookup(text)
        # Every request roots its own span tree — coalesced followers and
        # shed requests included — so the trace file answers "what
        # happened to request X" for every X, not just dispatch leaders.
        root: Span | None = None
        if tracer is not None:
            root = tracer.start_span("request", fingerprint=digest)
        key = coalescing_key(
            digest, readings, fault_schedule, fault_seed, degradation, max_retries
        )
        shard = self._route(digest)

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        joined: InFlight | None = None
        if self._config.coalescing:
            joined = self._coalescer.join(key, future)
        if joined is not None:
            self._metrics.counter("requests_coalesced").increment()
            if tracer is not None and root is not None:
                tracer.emit(
                    "coalesce-attach",
                    trace=root.trace_id,
                    parent=root.span_id,
                    fingerprint=digest,
                    leader_trace=joined.trace_id,
                    fanout=joined.fanout,
                )
        else:
            decision = self._admission.decide(
                inflight=self._coalescer.inflight_requests,
                shard_depth=len(self._coalescer.pending_on(shard)),
                warm=(shard, digest) in self._warm,
                joinable=False,
            )
            if not decision.admitted:
                return self._shed(
                    digest, readings, decision.reason,
                    root=root, latency_start=start,
                )
            request_id = next(self._ids)
            entry = self._coalescer.open(key, shard, request_id, text, future)
            context: TraceContext | None = None
            if tracer is not None and root is not None:
                entry.trace_id = root.trace_id
                entry.root_span = root.span_id
                # Routing and coalesce registration ride as fields on
                # the root span rather than as zero-duration child
                # events — the waterfall derives the route segment as
                # the root's residual, and two fewer events per leader
                # keeps tracing inside the overhead benchmark's budget.
                root.annotate(inflight=len(self._coalescer))
                # sent_ts baggage lets the shard attribute queue time.
                context = TraceContext(
                    trace_id=root.trace_id,
                    parent_span=root.span_id,
                    baggage=(("sent_ts", repr(tracer.now())),),
                )
            entry.request = ExecuteRequest(
                request_id=request_id,
                text=text,
                readings=readings,
                fingerprint=digest,
                readings_key=key.readings,
                fault_schedule=(
                    dict(fault_schedule) if fault_schedule is not None else None
                ),
                fault_seed=fault_seed,
                degradation=degradation,
                max_retries=max_retries,
                trace=context,
            )
            # One watchdog per execution, shared by every waiter — far
            # cheaper than an asyncio.wait_for task per request.
            entry.timeout_handle = loop.call_later(
                self._config.request_timeout, self._expire, request_id
            )
            self._dispatch(shard, entry.request)

        reply: ExecuteReply = await future
        latency = time.perf_counter() - start
        self._latency.observe(latency)
        shed_reply = (not reply.ok) and reply.error.startswith("shed:")
        self._slo.record(latency * 1e3, ok=reply.ok, shed=shed_reply)
        trace_id = ""
        if tracer is not None and root is not None:
            trace_id = root.trace_id
            end_fields: dict[str, Any] = {
                "ok": reply.ok,
                "coalesced": joined is not None,
            }
            if shed_reply:
                end_fields["shed"] = True
                end_fields["reason"] = reply.error.split(":", 1)[1]
            else:
                end_fields["shard"] = reply.shard
                if not reply.ok:
                    end_fields["error"] = reply.error
            root.end(**end_fields)
        if reply.ok:
            return ClusterResponse(
                ok=True,
                shard=reply.shard,
                payload=reply.payload,
                coalesced=joined is not None,
                trace_id=trace_id,
            )
        if shed_reply:
            reason = reply.error.split(":", 1)[1]
            return ClusterResponse(
                ok=False,
                shed=True,
                shed_reason=reason,
                error=reply.error,
                trace_id=trace_id,
            )
        return ClusterResponse(
            ok=False,
            shard=reply.shard,
            coalesced=joined is not None,
            error=reply.error,
            trace_id=trace_id,
        )

    async def execute_many(
        self, requests: list[tuple[str, np.ndarray]], **kwargs: Any
    ) -> list[ClusterResponse]:
        """Serve a wave of requests concurrently (results in order).

        Every request goes through :meth:`execute`, so duplicates in the
        wave join the first one's in-flight execution.
        """
        responses = await asyncio.gather(
            *(self.execute(text, readings, **kwargs) for text, readings in requests)
        )
        return list(responses)

    def _expire(self, request_id: int) -> None:
        """Watchdog: fail every waiter of an execution that never replied."""
        entry = self._coalescer.resolve(request_id)
        if entry is None:
            return
        self._metrics.counter("request_timeouts").increment()
        error = ShardUnavailableError(
            f"request on shard {entry.shard} timed out after "
            f"{self._config.request_timeout:g}s"
        )
        for waiter in entry.waiters:
            if not waiter.done():
                waiter.set_exception(error)

    def _route(self, digest: str) -> int:
        shard = self._ring.node_for(digest)
        if shard not in self._live:  # pragma: no cover - ring is pruned
            raise ShardUnavailableError(f"shard {shard} is down")
        return int(shard)

    def _dispatch(self, shard: int, request: ExecuteRequest) -> None:
        self._dispatched.increment()
        try:
            self._backend.send(shard, request)
        except ShardUnavailableError:
            # The worker died between liveness bookkeeping and the send;
            # treat it exactly like a detected outage.
            self._handle_outage(shard)

    def _shed(
        self,
        digest: str,
        readings: np.ndarray,
        reason: str,
        root: Span | None = None,
        latency_start: float | None = None,
    ) -> ClusterResponse:
        self._metrics.labeled_counter("requests_shed", "reason").labels(
            reason=reason
        ).increment()
        avoided = self._known_cost.get(digest, 0.0)
        charged = self._admission.charge_shed(
            avoided, int(np.asarray(readings).shape[0])
        )
        latency_ms = 0.0
        if latency_start is not None:
            latency_ms = (time.perf_counter() - latency_start) * 1e3
        self._slo.record(latency_ms, ok=False, shed=True)
        tracer = self._tracer
        trace_id = ""
        if tracer is not None:
            if root is None:
                root = tracer.start_span("request", fingerprint=digest)
            trace_id = root.trace_id
            # cost_avoided mirrors what charge_shed just recorded, so
            # the trace-vs-ledger reconciliation can check shed
            # conservation the same way it checks execution cost.
            tracer.emit(
                "shed",
                trace=root.trace_id,
                parent=root.span_id,
                fingerprint=digest,
                reason=reason,
                cost_avoided=charged,
            )
            root.end(ok=False, shed=True, reason=reason)
        return ClusterResponse(
            ok=False,
            shed=True,
            shed_reason=reason,
            error=f"shed:{reason}",
            trace_id=trace_id,
        )

    # ------------------------------------------------------------------
    # Reply handling (event loop only)
    # ------------------------------------------------------------------

    def _on_message(self, message: object) -> None:
        if isinstance(message, ExecuteReply):
            self._on_execute_reply(message)
        elif isinstance(message, ControlReply):
            self._on_control_reply(message)
        else:  # pragma: no cover - protocol violation
            logger.warning("dropping unknown message %r", message)

    def _on_execute_reply(self, reply: ExecuteReply) -> None:
        # Ingest piggybacked shard spans exactly once per reply — here,
        # before coalesced fan-out and before the stale-reply early exit,
        # so even a re-routed execution's spans reach the merged trace.
        if self._tracer is not None and reply.spans:
            self._tracer.ingest(reply.spans)
        self._observe_version(reply.shard, reply.statistics_version)
        entry = self._coalescer.resolve(reply.request_id)
        if entry is None:
            # Stale reply: the execution was re-routed after an outage or
            # the cluster is shutting down.
            self._metrics.counter("stale_replies").increment()
            return
        if entry.timeout_handle is not None:
            entry.timeout_handle.cancel()
        if reply.ok:
            digest = entry.key.digest
            self._warm.add((reply.shard, digest))
            if reply.expected_where_cost > 0.0:
                self._known_cost[digest] = reply.expected_where_cost
        for waiter in entry.waiters:
            if not waiter.done():
                waiter.set_result(reply)

    def _on_control_reply(self, reply: ControlReply) -> None:
        self._observe_version(reply.shard, reply.statistics_version)
        future = self._control_pending.pop(reply.request_id, None)
        if future is not None and not future.done():
            future.set_result(reply)

    def _observe_version(self, shard: int, version: int) -> None:
        """The broadcast bus: propagate the newest statistics generation."""
        if version <= self._cluster_version:
            return
        self._cluster_version = version
        self._metrics.counter("version_broadcasts").increment()
        # Warm bookkeeping describes plans of the old generation.
        self._warm.clear()
        for peer in sorted(self._live):
            if peer == shard:
                continue
            task = asyncio.ensure_future(
                self._control(peer, "sync_version", version=version)
            )
            self._broadcast_tasks.add(task)
            task.add_done_callback(self._broadcast_done)

    def _broadcast_done(self, task: asyncio.Task) -> None:
        self._broadcast_tasks.discard(task)
        if task.cancelled():
            return
        error = task.exception()
        if error is not None:
            logger.warning("version broadcast failed: %s", error)

    # ------------------------------------------------------------------
    # Outage handling
    # ------------------------------------------------------------------

    def induce_outage(self, shard: int) -> None:
        """Kill a shard (chaos hook) and degrade its traffic soundly."""
        if shard not in self._live:
            raise ClusterError(f"shard {shard} is not live")
        self._backend.kill(shard)
        self._handle_outage(shard)

    def _handle_outage(self, shard: int) -> None:
        if shard not in self._live:
            return
        self._metrics.counter("shard_outages").increment()
        self._live.discard(shard)
        self._ring.remove(shard)
        self._warm = {
            (owner, digest)
            for owner, digest in self._warm
            if owner != shard
        }
        pending = self._coalescer.pending_on(shard)
        reroute = self._config.outage_mode == "skip" and bool(self._live)
        tracer = self._tracer
        for entry in pending:
            if entry.timeout_handle is not None:
                entry.timeout_handle.cancel()
            if reroute and entry.request is not None:
                new_shard = int(self._ring.node_for(entry.key.digest))
                request_id = next(self._ids)
                context = entry.request.trace
                if tracer is not None and entry.trace_id:
                    # The reroute span stays parented under the original
                    # request's root, so the re-dispatched execution's
                    # shard spans land in the same single-root tree.
                    reroute_span = tracer.new_span()
                    tracer.emit(
                        "reroute",
                        span=reroute_span,
                        trace=entry.trace_id,
                        parent=entry.root_span,
                        fingerprint=entry.key.digest,
                        from_shard=shard,
                        to_shard=new_shard,
                    )
                    context = TraceContext(
                        trace_id=entry.trace_id,
                        parent_span=reroute_span,
                        baggage=(("sent_ts", repr(tracer.now())),),
                    )
                request = replace(
                    entry.request, request_id=request_id, trace=context
                )
                self._coalescer.reassign(entry, new_shard, request_id)
                entry.request = request
                entry.timeout_handle = self._loop.call_later(
                    self._config.request_timeout, self._expire, request_id
                )
                self._metrics.counter("requests_rerouted").increment()
                self._dispatch(new_shard, request)
            else:
                self._coalescer.resolve(entry.request_id)
                self._metrics.labeled_counter(
                    "requests_shed", "reason"
                ).labels(reason="outage").increment(len(entry.waiters))
                avoided = self._known_cost.get(entry.key.digest, 0.0)
                rows = 0
                if entry.request is not None:
                    rows = int(np.asarray(entry.request.readings).shape[0])
                charged = self._admission.charge_shed(avoided, rows)
                if tracer is not None and entry.trace_id:
                    # One accounting event per execution (not per
                    # waiter): cost_avoided must match charge_shed
                    # exactly once.  Waiters' own request roots close
                    # with shed=True when the shed reply fans out.
                    tracer.emit(
                        "outage-shed",
                        trace=entry.trace_id,
                        parent=entry.root_span,
                        fingerprint=entry.key.digest,
                        shard=shard,
                        waiters=len(entry.waiters),
                        cost_avoided=charged,
                    )
                shed_reply = ExecuteReply(
                    request_id=entry.request_id,
                    shard=shard,
                    ok=False,
                    error="shed:outage",
                )
                for waiter in entry.waiters:
                    if not waiter.done():
                        waiter.set_result(shed_reply)

    # ------------------------------------------------------------------
    # Control / introspection
    # ------------------------------------------------------------------

    async def _control(
        self, shard: int, kind: str, version: int = 0
    ) -> ControlReply:
        loop = asyncio.get_running_loop()
        request_id = next(self._ids)
        future: asyncio.Future = loop.create_future()
        self._control_pending[request_id] = future
        try:
            self._backend.send(
                shard,
                ControlRequest(
                    request_id=request_id, kind=kind, version=version
                ),
            )
            return await asyncio.wait_for(
                future, timeout=self._config.control_timeout
            )
        except (asyncio.TimeoutError, ShardUnavailableError):
            self._control_pending.pop(request_id, None)
            raise ShardUnavailableError(
                f"shard {shard} did not answer {kind!r}"
            ) from None

    async def invalidate_all(self) -> int:
        """Advance every shard to a fresh statistics generation.

        This is the broadcast bus driven from the top (e.g. after an
        out-of-band statistics refit): each shard bumps past the current
        cluster version, dropping stale cached plans everywhere, and the
        new generation becomes the cluster version.  Returns it.
        """
        target = self._cluster_version + 1
        replies = await asyncio.gather(
            *(
                self._control(shard, "sync_version", version=target)
                for shard in sorted(self._live)
            )
        )
        self._warm.clear()
        self._cluster_version = max(
            target,
            max(reply.statistics_version for reply in replies),
        )
        return self._cluster_version

    def front_door_stats(self) -> dict:
        """Front-door-local snapshot (no shard round-trips)."""
        slo = self._slo.snapshot()  # refreshes burn-rate gauges too
        snapshot = self._metrics.snapshot()
        return {
            "live_shards": sorted(self._live),
            "statistics_version": self._cluster_version,
            "coalescing": {
                "enabled": self._config.coalescing,
                "inflight": self._coalescer.inflight_requests,
                "coalesced_requests": self._coalescer.coalesced_requests,
                "dispatched_requests": self._coalescer.dispatched_requests,
            },
            "admission": self._admission.snapshot(),
            "slo": slo,
            "counters": snapshot["counters"],
            "labeled_counters": snapshot["labeled_counters"],
            "latency": snapshot["histograms"],
        }

    async def stats(self) -> dict:
        """Cluster-wide view: per-shard stats + merged metrics."""
        replies = await asyncio.gather(
            *(self._control(shard, "stats") for shard in sorted(self._live))
        )
        shards = {
            reply.shard: reply.payload["stats"] for reply in replies
        }
        merged = merge_snapshots(
            [reply.payload["metrics"] for reply in replies]
        )
        return {
            "front_door": self.front_door_stats(),
            "shards": shards,
            "merged_metrics": merged,
        }

    async def prometheus(self) -> str:
        """Shard-labeled exposition: every worker plus the front door."""
        replies = await asyncio.gather(
            *(self._control(shard, "stats") for shard in sorted(self._live))
        )
        sections = [
            render_prometheus(
                self._metrics.snapshot(), labels={"shard": "front_door"}
            )
        ]
        sections.extend(
            render_prometheus(
                reply.payload["metrics"], labels={"shard": str(reply.shard)}
            )
            for reply in replies
        )
        return "".join(sections)
