"""Structured JSON-lines tracing for the serving and cluster layers.

Every interesting moment in a query's life — parse/plan, verification,
cache hit or miss, execution, replan — becomes one :class:`TraceEvent`:
a flat, JSON-serializable record carrying a span id, the query
fingerprint, the phase name, a duration in milliseconds where one
applies, and free-form extra fields.

Since the sharded tier (PR 6) a request's life spans *processes*, so
events also carry distributed-trace coordinates:

- a **trace id** grouping every event of one front-door request,
- a **parent span id** wiring events into a tree (the front door's
  ``request`` span is the root; each shard's ``shard-execute`` span and
  the service phases underneath it are children),
- and a :class:`TraceContext` — ``(trace_id, parent_span, baggage)`` —
  the picklable capsule those coordinates travel in inside
  :mod:`repro.cluster.messages` wire records.

A span is a :class:`TraceEvent` record from the moment it is emitted
until it is written out: a shard's spans ride back to the front door as
records on its replies (pickled across a process boundary, shared
in-process), and :meth:`Tracer.ingest` merges them as records.  A
:class:`Tracer` buffers recent records in a bounded deque (for tests
and ``stats()``-style introspection) and, when given a stream, writes
each record as one JSON line the moment it is emitted or ingested — the
only place a span is encoded, and the format ``repro serve-bench
--trace-out`` and ``repro serve-sharded --trace-out`` write and
``docs/OBSERVABILITY.md`` documents.  Tracers
are *named*: span and trace ids are prefixed with the tracer's name
(``shard1-s3``, ``fd-t17``), so ids minted by different processes can
never collide in a merged trace file.  Timestamps and span durations
come from the tracer's *injectable clock* — a zero-argument callable
handed to the constructor, defaulting to wall-clock ``time.time`` — so
tests replay traces byte-identically by injecting a fake clock.  The
default parameter below is the one allowlisted wall-clock site the
``DET002`` lint rule permits (``docs/LINTING.md``).

Spans carry explicit parents: :meth:`Tracer.start_span` takes the trace
and parent span it hangs under and :meth:`Span.end` closes it, so code
that interleaves on an event loop (the front door) and code that serves
many requests in one call (a shard's batch) both parent their events
correctly.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import IO, Any, Callable, Iterable, Iterator

__all__ = ["TRACE_PHASES", "Span", "TraceContext", "TraceEvent", "Tracer"]

# The phase vocabulary emitted by AcquisitionalService and the sharded
# front door.  Tracers accept arbitrary phase strings (the schema is
# open), but these are the ones a dashboard can rely on.
# One shared encoder for the JSON-lines stream: ``json.dumps`` builds a
# fresh JSONEncoder per call, which is measurable at cluster event rates
# (the overhead benchmark holds distributed tracing to <10% of qps).
# Output bytes are identical to ``json.dumps(..., sort_keys=True)``.
_ENCODE = json.JSONEncoder(sort_keys=True).encode

TRACE_PHASES = (
    # service phases (single-process serving)
    "plan",
    "verify",
    "cache-hit",
    "cache-miss",
    "cache-reject",
    "execute",
    "execute-resilient",
    "replan",
    "recertify",
    "learn",
    # distributed span taxonomy (sharded tier); routing and coalesce
    # bookkeeping ride as *fields* on the request root span (shard,
    # inflight, coalesced) rather than as zero-duration child events —
    # per-request emission cost is what the overhead benchmark bounds.
    "request",
    "coalesce-attach",
    "shard-execute",
    "reroute",
    "outage-shed",
    "shed",
)


@dataclass(frozen=True)
class TraceContext:
    """The distributed-trace coordinates one request carries on the wire.

    ``baggage`` is a sorted tuple of ``(key, value)`` string pairs —
    immutable and picklable, so the context crosses ``multiprocessing``
    queues unchanged.  The front door stamps ``sent_ts`` baggage at
    dispatch time; the shard turns it into the ``queue_ms`` segment.
    """

    trace_id: str
    parent_span: str = ""
    baggage: tuple[tuple[str, str], ...] = ()

    def __reduce__(
        self,
    ) -> tuple[type["TraceContext"], tuple[object, ...]]:
        # Positional-args pickling: a context rides on every traced wire
        # record, and the dataclass default (__getstate__ dict) costs
        # measurably more per message on the process backend.
        return (TraceContext, (self.trace_id, self.parent_span, self.baggage))

    def child(self, parent_span: str) -> "TraceContext":
        """The same trace, re-parented under ``parent_span``."""
        return replace(self, parent_span=parent_span)

    def with_baggage(self, **items: str) -> "TraceContext":
        merged = dict(self.baggage)
        merged.update(items)
        return replace(self, baggage=tuple(sorted(merged.items())))

    def baggage_value(self, key: str, default: str = "") -> str:
        for name, value in self.baggage:
            if name == key:
                return value
        return default


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured trace record.

    ``trace`` and ``parent`` are the distributed-tree coordinates; both
    empty on flat (single-process) events, which keeps the PR 3 format a
    strict subset of the distributed one.
    """

    ts: float
    span: str
    phase: str
    fingerprint: str = ""
    ms: float | None = None
    trace: str = ""
    parent: str = ""
    fields: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "ts": round(self.ts, 6),
            "span": self.span,
            "phase": self.phase,
        }
        if self.trace:
            record["trace"] = self.trace
        if self.parent:
            record["parent"] = self.parent
        if self.fingerprint:
            record["fingerprint"] = self.fingerprint
        if self.ms is not None:
            record["ms"] = round(self.ms, 3)
        record.update(self.fields)
        return record

    def __reduce__(
        self,
    ) -> tuple[type["TraceEvent"], tuple[object, ...]]:
        # Positional-args pickling, as for TraceContext: a traced reply
        # carries a request's records across the process boundary.
        return (
            TraceEvent,
            (
                self.ts,
                self.span,
                self.phase,
                self.fingerprint,
                self.ms,
                self.trace,
                self.parent,
                self.fields,
            ),
        )

    def to_json(self) -> str:
        return _ENCODE(self.as_dict())


class Span:
    """An open hierarchical span; :meth:`end` emits its closing event.

    The span's duration is measured on the owning tracer's injectable
    clock, so traces stay byte-reproducible under a fake clock.  A span
    is emitted exactly once — :meth:`end` is idempotent.
    """

    __slots__ = (
        "_tracer",
        "phase",
        "span_id",
        "trace_id",
        "parent_id",
        "fingerprint",
        "fields",
        "_start",
        "_closed",
    )

    def __init__(
        self,
        tracer: "Tracer",
        phase: str,
        span_id: str,
        trace_id: str,
        parent_id: str,
        fingerprint: str,
        fields: dict[str, Any],
        start: float,
    ) -> None:
        self._tracer = tracer
        self.phase = phase
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.fingerprint = fingerprint
        self.fields = fields
        self._start = start
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def context(self) -> TraceContext:
        """A wire context making remote spans children of this span."""
        return TraceContext(trace_id=self.trace_id, parent_span=self.span_id)

    def annotate(self, **fields: Any) -> None:
        """Attach extra fields to the closing event (before :meth:`end`:
        the closing event shares this span's ``fields`` dict)."""
        self.fields.update(fields)

    def end(self, **fields: Any) -> TraceEvent | None:
        """Close the span, emitting one event with its measured duration.

        The closing event is built directly rather than routed through
        :meth:`Tracer.emit` — span coordinates are already explicit, so
        the context-stack check and the keyword re-packing would be pure
        per-request overhead on the cluster's serving path.  One clock
        read supplies both the event timestamp and the duration.
        """
        if self._closed:
            return None
        self._closed = True
        if fields:
            self.fields.update(fields)
        tracer = self._tracer
        now = tracer.now()
        event = TraceEvent(
            ts=now,
            span=self.span_id,
            phase=self.phase,
            fingerprint=self.fingerprint,
            ms=max(0.0, (now - self._start) * 1e3),
            trace=self.trace_id,
            parent=self.parent_id,
            fields=self.fields,
        )
        tracer._record(event)
        return event


class Tracer:
    """Collects :class:`TraceEvent` records; optionally streams JSON lines.

    ``capacity`` bounds the in-memory buffer of records (oldest events
    fall off); the output stream, when given, sees *every* event
    regardless of the buffer, each encoded once as it is written.  The
    tracer never closes the stream it was handed.
    ``clock`` supplies event timestamps and span durations (seconds);
    inject a deterministic callable to make traces reproducible under
    test.  ``name`` prefixes every minted span/trace id — give each
    shard's tracer a distinct name (``shard0``, ``shard1``, …) so two
    processes can never both emit ``s1``.
    """

    def __init__(
        self,
        stream: IO[str] | None = None,
        capacity: int = 4096,
        clock: Callable[[], float] = time.time,
        name: str = "",
    ) -> None:
        self._stream = stream
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._spans = itertools.count(1)
        self._traces = itertools.count(1)
        self._emitted = 0
        self._clock = clock
        self._name = str(name)
        self._prefix = f"{self._name}-" if self._name else ""
        self._collectors: list[list[TraceEvent]] = []

    @property
    def name(self) -> str:
        return self._name

    def new_span(self) -> str:
        """A fresh (tracer-name-prefixed) span id."""
        return f"{self._prefix}s{next(self._spans)}"

    def new_trace(self) -> str:
        """A fresh (tracer-name-prefixed) trace id."""
        return f"{self._prefix}t{next(self._traces)}"

    def now(self) -> float:
        """The tracer's clock reading (seconds)."""
        return float(self._clock())

    def emit(
        self,
        phase: str,
        *,
        span: str = "",
        fingerprint: str = "",
        ms: float | None = None,
        trace: str = "",
        parent: str = "",
        **fields: Any,
    ) -> TraceEvent:
        """Record one event; ``trace``/``parent`` place it in a span tree."""
        event = TraceEvent(
            ts=self._clock(),
            span=span,
            phase=phase,
            fingerprint=fingerprint,
            ms=ms,
            trace=trace,
            parent=parent,
            fields=fields,
        )
        self._record(event)
        return event

    def start_span(
        self,
        phase: str,
        *,
        trace: str = "",
        parent: str = "",
        fingerprint: str = "",
        **fields: Any,
    ) -> Span:
        """Open a span; close it with ``Span.end``.

        Without an explicit ``trace`` a fresh trace id is minted — this is
        how the front door roots one trace per request.
        """
        if not trace:
            trace = self.new_trace()
        # ``fields`` is this call's own kwargs dict — safe to hand to the
        # span without a defensive copy.
        return Span(
            self,
            phase,
            self.new_span(),
            trace,
            parent,
            fingerprint,
            fields,
            self.now(),
        )

    @contextmanager
    def collect(self) -> Iterator[list[TraceEvent]]:
        """Capture every event emitted while the context is open.

        The shard server wraps each traced batch in a collector and
        piggybacks each request's captured events on its reply —
        span export without sharing the tracer across the process
        boundary.
        """
        bucket: list[TraceEvent] = []
        self._collectors.append(bucket)
        try:
            yield bucket
        finally:
            self._collectors.remove(bucket)

    def ingest(self, records: Iterable[TraceEvent]) -> int:
        """Merge foreign records (reply-piggybacked shard spans).

        Records pass through verbatim — timestamps, ids, and fields are
        the emitting tracer's — so the merged stream round-trips
        byte-identically.  Returns the number of records ingested.
        """
        count = 0
        for event in records:
            self._record(event)
            count += 1
        return count

    def _record(self, event: TraceEvent) -> None:
        self._emitted += 1
        for bucket in self._collectors:
            bucket.append(event)
        if self._stream is not None:
            self._stream.write(event.to_json() + "\n")
        self._events.append(event)

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """The buffered (most recent) events, oldest first."""
        return tuple(self._events)

    @property
    def emitted(self) -> int:
        """Total events emitted over the tracer's lifetime."""
        return self._emitted

    def phases(self) -> Iterator[str]:
        for event in self.events:
            yield event.phase

    def clear(self) -> None:
        self._events.clear()
