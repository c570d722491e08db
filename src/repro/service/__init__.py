"""Serving layer: plan caching, batching, and metrics over the engine.

The paper's engine plans a statement from historical statistics and then
reuses the plan per-tuple; this package scales that amortization across
a *workload*.  :class:`AcquisitionalService` canonicalizes statements to
:class:`QueryFingerprint` slots, caches prepared plans in a
statistics-versioned :class:`PlanCache`, serves every :class:`Request`
through one pipeline (:meth:`AcquisitionalService.serve`) that batches
same-shape requests into single vectorized passes, and meters
everything through :class:`MetricsRegistry`.
"""

from repro.service.cache import CacheStats, PlanCache
from repro.service.fingerprint import (
    QueryFingerprint,
    fingerprint_parsed,
    fingerprint_statement,
)
from repro.service.metrics import (
    Counter,
    Gauge,
    LabeledCounter,
    LatencyHistogram,
    MetricsRegistry,
    merge_snapshots,
)
from repro.service.service import AcquisitionalService, FaultContext, Outcome, Request

__all__ = [
    "AcquisitionalService",
    "FaultContext",
    "Outcome",
    "Request",
    "PlanCache",
    "CacheStats",
    "QueryFingerprint",
    "fingerprint_parsed",
    "fingerprint_statement",
    "Counter",
    "Gauge",
    "LabeledCounter",
    "LatencyHistogram",
    "MetricsRegistry",
    "merge_snapshots",
]
