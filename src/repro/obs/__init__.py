"""Runtime observability: plan profiling, drift monitoring, tracing.

Static planning (PR 0) and serving (PR 1) optimize and cache plans
against Eq. 3 expected costs; verification (PR 2) checks plans before
they run.  This package watches what plans *actually do*:

- :mod:`repro.obs.profile` — per-node execution ledgers
  (:class:`PlanProfile`) keyed by the verifier's stable node paths,
  collected through the pluggable
  :class:`~repro.core.cost.ExecutionObserver` hook;
- :mod:`repro.obs.drift` — the plan's per-node Eq. 3 records
  (:func:`repro.core.cost.cost_decomposition`) scored against
  observations (:class:`DriftMonitor`), the signal behind profile-drift
  replans;
- :mod:`repro.obs.trace` — JSON-lines trace events from the serving
  layer (:class:`Tracer`), plus the distributed-tracing primitives the
  sharded tier propagates across processes (:class:`TraceContext`,
  hierarchical :class:`Span` handles, span collection/ingestion);
- :mod:`repro.obs.waterfall` — trace-tree assembly, waterfall and
  critical-path analysis of merged distributed traces, and the
  trace-vs-ledger Eq. 3 conservation check behind ``repro obs-report``;
- :mod:`repro.obs.slo` — latency/error SLO budgets with burn-rate
  counters fed through the metrics registry;
- :mod:`repro.obs.exposition` — Prometheus text rendering of metrics
  snapshots (:func:`render_prometheus`);
- :mod:`repro.obs.report` — the EXPLAIN-ANALYZE-style
  predicted-vs-observed tree behind ``repro profile``.
"""

from repro.obs.drift import (
    DEFAULT_DRIFT_THRESHOLD,
    CellDrift,
    DriftMonitor,
    DriftReport,
)
from repro.obs.exposition import parse_prometheus, render_prometheus
from repro.obs.profile import NodeCounters, PlanProfile, StepCounters
from repro.obs.report import profile_report
from repro.obs.slo import SLOPolicy, SLOTracker
from repro.obs.trace import (
    TRACE_PHASES,
    Span,
    TraceContext,
    TraceEvent,
    Tracer,
)
from repro.obs.waterfall import (
    SEGMENTS,
    TraceTree,
    assemble_traces,
    attributed_costs,
    critical_paths,
    latency_decomposition,
    reconcile_costs,
    segments,
    shed_costs_avoided,
    trace_summary,
)

__all__ = [
    "DEFAULT_DRIFT_THRESHOLD",
    "CellDrift",
    "DriftMonitor",
    "DriftReport",
    "parse_prometheus",
    "render_prometheus",
    "NodeCounters",
    "PlanProfile",
    "StepCounters",
    "profile_report",
    "TRACE_PHASES",
    "TraceEvent",
    "Tracer",
    "Span",
    "TraceContext",
    "SLOPolicy",
    "SLOTracker",
    "SEGMENTS",
    "TraceTree",
    "assemble_traces",
    "attributed_costs",
    "critical_paths",
    "latency_decomposition",
    "reconcile_costs",
    "segments",
    "shed_costs_avoided",
    "trace_summary",
]
