"""The worker protocol: messages crossing the front-door/shard boundary.

Everything here is a plain picklable dataclass so the same types flow
over ``multiprocessing`` queues (process backend) and plain function
calls (in-process backend).  The protocol is deliberately small:

- :class:`ExecuteRequest` — serve one statement over a readings matrix,
  optionally under a fault schedule (per-shard chaos), carrying the
  front door's :class:`~repro.obs.trace.TraceContext` when tracing;
- :class:`ExecuteReply` — the result (or error) plus the shard's current
  statistics version, which doubles as the piggybacked signal the front
  door uses for cross-shard invalidation broadcasts; when tracing, the
  reply also piggybacks the shard's exported span records so one
  process (the front door) holds the whole request tree;
- :class:`ControlRequest` / :class:`ControlReply` — stats collection,
  statistics-version synchronization, liveness pings, and shutdown.

:class:`ShardConfig` is the recipe a worker uses to build its private
:class:`~repro.service.AcquisitionalService`: schema + training history
+ planner/cache knobs.  Workers never share Python objects with the
front door — each shard owns its engine, plan cache, metrics registry,
and tracer outright, which is what makes the per-shard state safe
without cross-process locking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.core.attributes import Schema
from repro.exceptions import ClusterError
from repro.obs.trace import TraceContext, TraceEvent
from repro.planning.registry import PLANNER_NAMES

__all__ = [
    "ShardConfig",
    "ExecuteRequest",
    "ExecuteReply",
    "ControlRequest",
    "ControlReply",
    "CONTROL_KINDS",
]

# Every named planner but the exhaustive one, whose search is exponential.
_PLANNERS = tuple(name for name in PLANNER_NAMES if name != "exhaustive")
CONTROL_KINDS = ("ping", "stats", "sync_version", "shutdown")


@dataclass(frozen=True)
class ShardConfig:
    """Everything a worker needs to build its shard-local service.

    ``planner`` names the conjunctive planner family (disjunctive
    statements fall back to the exhaustive planner inside the engine as
    usual).  It is a *name* rather than a factory callable so the config
    pickles under the ``spawn`` start method, not just ``fork``.
    ``batch_window`` caps how many queued requests a worker drains into
    one ``serve`` call.  ``tracing`` gives the shard a
    name-prefixed :class:`~repro.obs.trace.Tracer` whose spans are
    exported back to the front door on replies.
    """

    schema: Schema
    history: np.ndarray
    planner: str = "corr-seq"
    max_splits: int = 5
    smoothing: float = 0.0
    cache_capacity: int = 256
    cache_policy: str = "lfu"
    verify_admission: bool = True
    profiling: bool = False
    batch_window: int = 128
    tracing: bool = False

    def __post_init__(self) -> None:
        if self.planner not in _PLANNERS:
            raise ClusterError(
                f"unknown planner {self.planner!r}; choose from {_PLANNERS}"
            )
        if self.batch_window < 1:
            raise ClusterError(
                f"batch_window must be >= 1, got {self.batch_window}"
            )


@dataclass(frozen=True)
class ExecuteRequest:
    """Serve ``text`` over ``readings`` on the routed shard.

    ``fingerprint`` is the canonical digest the front door routed on and
    ``readings_key`` the readings hash of its coalescing key (see
    :func:`~repro.cluster.coalesce.coalescing_key`); the shard
    re-canonicalizes for its own plan cache.  When ``fault_schedule`` (a
    :meth:`~repro.faults.FaultSchedule.to_dict` payload) is present the
    shard runs the resilient path; ``fault_seed`` is combined with the
    fingerprint digest and the readings hash so the injection stream is
    deterministic per query shape and window no matter how requests are
    coalesced or batched.  A request built without ``fingerprint`` or
    ``readings_key`` has them computed by the shard.

    ``trace`` carries the distributed-trace coordinates when the cluster
    runs with tracing enabled: the shard parents its ``shard-execute``
    span under ``trace.parent_span`` and reads the ``sent_ts`` baggage to
    attribute queue time.  ``None`` means untraced (zero overhead).
    """

    request_id: int
    text: str
    readings: np.ndarray
    fingerprint: str = ""
    readings_key: str = ""
    fault_schedule: Mapping[str, Any] | None = None
    fault_seed: int = 0
    degradation: str = "abstain"
    max_retries: int = 2
    trace: TraceContext | None = None


@dataclass(frozen=True)
class ExecuteReply:
    """One request's outcome plus shard health piggybacked alongside.

    ``payload`` is a :class:`~repro.engine.QueryResult` (plain path) or
    :class:`~repro.engine.ResilientQueryResult` (chaos path); ``None``
    when ``ok`` is false and ``error`` explains why.
    ``expected_where_cost`` feeds the front door's Eq. 3 shed-accounting
    ledger.

    When tracing, ``spans`` piggybacks the shard's span records for this
    request, as :class:`~repro.obs.trace.TraceEvent` objects: shared
    in-process, pickled across a process boundary.  They are encoded only
    where they are written out, on the front door's trace stream.
    """

    request_id: int
    shard: int
    ok: bool
    payload: Any = None
    error: str = ""
    statistics_version: int = 1
    expected_where_cost: float = 0.0
    spans: tuple[TraceEvent, ...] = ()


@dataclass(frozen=True)
class ControlRequest:
    """A non-query instruction to one shard worker."""

    request_id: int
    kind: str
    version: int = 0

    def __post_init__(self) -> None:
        if self.kind not in CONTROL_KINDS:
            raise ClusterError(
                f"unknown control kind {self.kind!r}; "
                f"choose from {CONTROL_KINDS}"
            )


@dataclass(frozen=True)
class ControlReply:
    """A shard's answer to a :class:`ControlRequest`."""

    request_id: int
    shard: int
    kind: str
    statistics_version: int = 1
    payload: dict = field(default_factory=dict)
