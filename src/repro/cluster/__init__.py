"""Sharded async serving tier for the acquisitional query service.

A :class:`ShardedServiceCluster` front door consistent-hash routes
canonical query fingerprints to shard workers (each owning a private
:class:`~repro.service.AcquisitionalService`, plan cache, and metrics
registry), coalesces identical in-flight requests so each unique
(fingerprint, readings, fault) execution is acquired and planned once,
sheds load under overload with the fault-policy degradation vocabulary,
and broadcasts statistics-version bumps across shards so stale plans
are invalidated cluster-wide.
"""

from repro.cluster.admission import AdmissionController, AdmissionDecision
from repro.cluster.coalesce import CoalescingMap, InFlight, readings_key
from repro.cluster.frontdoor import (
    ClusterConfig,
    ClusterResponse,
    ShardedServiceCluster,
)
from repro.cluster.hashring import ConsistentHashRing, stable_hash
from repro.cluster.messages import (
    ControlReply,
    ControlRequest,
    ExecuteReply,
    ExecuteRequest,
    ShardConfig,
)
from repro.cluster.shard import ShardServer
from repro.cluster.worker import worker_main

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "CoalescingMap",
    "ClusterConfig",
    "ClusterResponse",
    "ConsistentHashRing",
    "ControlReply",
    "ControlRequest",
    "ExecuteReply",
    "ExecuteRequest",
    "InFlight",
    "ShardConfig",
    "ShardServer",
    "ShardedServiceCluster",
    "readings_key",
    "stable_hash",
    "worker_main",
]
