"""Front-door request coalescing: acquire and plan once, serve many.

The paper's setting makes identical concurrent requests genuinely
shareable: a query fingerprint over a given readings window acquires the
same attributes and returns the same rows no matter how many clients ask,
so only the *first* in-flight request needs to cross the shard boundary.
:class:`CoalescingMap` tracks in-flight executions keyed by
:func:`coalescing_key` — ``(fingerprint digest, readings hash, fault
key)``; later arrivals attach an :class:`asyncio.Future` to the existing
entry and the single reply fans out to every waiter.

This module is the one place that decides what makes two requests
interchangeable.  The key is built once per request at the front door,
and its readings hash rides to the shard on the
:class:`~repro.cluster.messages.ExecuteRequest`, where it seeds a
faulted execution's RNG.

This map lives on the event loop (single-threaded access), so it needs
no locking; replies arriving from worker threads are marshalled onto
the loop before they touch it.
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable, Mapping, NamedTuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.messages import ExecuteRequest

__all__ = [
    "CoalescingKey",
    "CoalescingMap",
    "InFlight",
    "coalescing_key",
    "readings_key",
]


def readings_key(readings: np.ndarray) -> str:
    """A content hash of a readings matrix (shape + dtype + bytes).

    Two requests coalesce only when their fingerprints *and* readings
    agree — same query over different windows must execute separately.
    """
    matrix = np.ascontiguousarray(readings)
    header = f"{matrix.shape}:{matrix.dtype.str}:".encode()
    return hashlib.sha256(header + matrix.tobytes()).hexdigest()[:16]


class CoalescingKey(NamedTuple):
    """What makes two requests' results interchangeable."""

    digest: str
    readings: str
    faults: tuple | None


def coalescing_key(
    digest: str,
    readings: np.ndarray,
    fault_schedule: Mapping[str, Any] | None,
    fault_seed: int,
    degradation: str,
    max_retries: int,
) -> CoalescingKey:
    """The key of one request; hashes ``readings`` exactly once."""
    faults = None
    if fault_schedule is not None:
        faults = (
            repr(sorted(fault_schedule.items())),
            fault_seed,
            degradation,
            max_retries,
        )
    return CoalescingKey(digest, readings_key(readings), faults)


@dataclass
class InFlight:
    """One pending shard execution and everyone waiting on it."""

    key: CoalescingKey
    shard: Hashable
    request_id: int
    text: str
    waiters: list[asyncio.Future] = field(default_factory=list)
    #: The dispatched ExecuteRequest, kept so an outage re-route can
    #: resubmit the execution verbatim to the ring successor.
    request: ExecuteRequest | None = None
    #: One watchdog timer per execution (not per waiter): cancelled when
    #: the reply lands, fired to expire every waiter at once.
    timeout_handle: object | None = None
    #: Distributed-trace coordinates of the request that opened this
    #: execution (tracing only): an outage re-route parents its reroute
    #: span under ``root_span`` so the re-dispatched execution stays in
    #: the original request's tree.
    trace_id: str = ""
    root_span: str = ""

    @property
    def fanout(self) -> int:
        return len(self.waiters)


class CoalescingMap:
    """In-flight executions keyed by what makes results interchangeable."""

    def __init__(self) -> None:
        self._inflight: dict[CoalescingKey, InFlight] = {}
        self._by_request: dict[int, InFlight] = {}
        self.coalesced_requests = 0
        self.dispatched_requests = 0

    def __len__(self) -> int:
        return len(self._inflight)

    @property
    def inflight_requests(self) -> int:
        """Total waiters across every pending execution."""
        return sum(entry.fanout for entry in self._inflight.values())

    def join(self, key: CoalescingKey, future: asyncio.Future) -> InFlight | None:
        """Attach to an existing in-flight execution, if any.

        Returns the entry joined, or ``None`` when the caller must
        dispatch a fresh execution (and then :meth:`open` it).
        """
        entry = self._inflight.get(key)
        if entry is None:
            return None
        entry.waiters.append(future)
        self.coalesced_requests += 1
        return entry

    def open(
        self,
        key: CoalescingKey,
        shard: Hashable,
        request_id: int,
        text: str,
        future: asyncio.Future,
    ) -> InFlight:
        """Register a freshly-dispatched execution with its first waiter."""
        entry = InFlight(
            key=key, shard=shard, request_id=request_id, text=text
        )
        entry.waiters.append(future)
        self._inflight[key] = entry
        self._by_request[request_id] = entry
        self.dispatched_requests += 1
        return entry

    def resolve(self, request_id: int) -> InFlight | None:
        """Close the execution a reply answers; caller fans out to waiters."""
        entry = self._by_request.pop(request_id, None)
        if entry is None:
            return None
        current = self._inflight.get(entry.key)
        if current is entry:
            del self._inflight[entry.key]
        return entry

    def reassign(self, entry: InFlight, shard: Hashable, request_id: int) -> None:
        """Move a pending execution to a new shard (outage re-route)."""
        self._by_request.pop(entry.request_id, None)
        entry.shard = shard
        entry.request_id = request_id
        self._by_request[request_id] = entry
        self._inflight[entry.key] = entry

    def entries(self) -> list[InFlight]:
        """Every in-flight execution (shutdown sweep)."""
        return list(self._inflight.values())

    def pending_on(self, shard: Hashable) -> list[InFlight]:
        """Every in-flight execution currently owned by ``shard``."""
        return [
            entry
            for entry in self._inflight.values()
            if entry.shard == shard
        ]
