"""Trace-tree assembly, waterfall/critical-path analysis, Eq. 3 audit.

This module is the read side of distributed tracing: it consumes the
merged JSON-lines trace a traced cluster run produces (front-door
events plus the shard spans piggybacked on replies) and answers three
questions.

**Where did the time go?**  :func:`segments` decomposes one request
tree's end-to-end latency into additive segments —

- ``route``: front-door work before/after the shard (fingerprinting,
  ring lookup, admission, reply fan-out) — the residual of the root
  span after the measured segments below;
- ``queue``: dispatch-to-execution wait, from the ``sent_ts`` baggage
  the front door stamps and the shard turns into ``queue_ms``;
- ``coalesce_wait``: a follower request's whole life is waiting on its
  leader's execution, so a coalesced root with no execution spans of
  its own attributes its full duration here;
- ``execute``: the shard's ``shard-execute`` span(s) —

plus two *nested* sub-segments reported alongside (inside ``execute``,
not additive with it): ``acquire`` (the service's engine execution
spans) and ``plan`` (planning + verification).
:func:`latency_decomposition` aggregates those per-request rows into
p50/p95 percentiles and tail shares; :func:`critical_paths` ranks the
slowest trees and names each one's dominant segment.

**Is every request accounted for?**  :func:`trace_summary` checks
*tree completeness*: every trace has exactly one root (a ``request``
span with no parent) and no orphaned parent references — the invariant
the ``obs-distributed`` CI job asserts even across an induced outage.

**Does the trace agree with the ledger?**  :func:`reconcile_costs` is a
conservation check in the spirit of the verifier's COST rules: the
acquisition cost attributed by ``shard-execute`` spans
(``where_cost + projection_cost``, summed per shard) must equal each
live shard's ``acquisition_cost_total`` gauge, and the ``cost_avoided``
carried on shed events must equal the ``shed_cost`` side of the
admission controller's ledger (``shed_cost_avoided`` in its snapshot);
both checks are :meth:`~repro.core.ledger.Ledger.conserved`.  A shard
that died mid-run has spans but no ledger; it is reported as
unreconcilable rather than failing the check.

Determinism: pure functions of their inputs, no clocks, no RNG —
this module is on the lint's deterministic path and is an approved
ledger module (it re-derives Eq. 3 sums *to audit them*).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.core.ledger import Ledger

__all__ = [
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

#: Waterfall segment names, additive first, nested sub-segments last.
SEGMENTS = ("route", "queue", "coalesce_wait", "execute", "acquire", "plan")

_ADDITIVE = ("route", "queue", "coalesce_wait", "execute")
_EXECUTE_PHASES = ("shard-execute",)
_ACQUIRE_PHASES = ("execute", "execute-resilient")
_PLAN_PHASES = ("plan", "verify")
_COALESCE_PHASES = ("coalesce-attach",)
_SHED_PHASES = ("shed", "outage-shed")


@dataclass
class TraceTree:
    """Every event of one trace id, with tree-structure accessors."""

    trace_id: str
    events: list[dict[str, Any]] = field(default_factory=list)

    @property
    def roots(self) -> list[dict[str, Any]]:
        """Span events with no parent — exactly one in a complete tree."""
        return [
            event
            for event in self.events
            if event.get("span") and not event.get("parent")
        ]

    @property
    def root(self) -> dict[str, Any] | None:
        roots = self.roots
        return roots[0] if len(roots) == 1 else None

    @property
    def span_ids(self) -> set[str]:
        return {
            str(event["span"]) for event in self.events if event.get("span")
        }

    @property
    def orphans(self) -> list[dict[str, Any]]:
        """Events whose parent span never appears in this trace."""
        known = self.span_ids
        return [
            event
            for event in self.events
            if event.get("parent") and str(event["parent"]) not in known
        ]

    @property
    def complete(self) -> bool:
        """One root, no orphans: the whole request story is here."""
        return len(self.roots) == 1 and not self.orphans

    @property
    def total_ms(self) -> float:
        root = self.root
        if root is None:
            return 0.0
        return float(root.get("ms") or 0.0)

    def phase_events(self, *phases: str) -> list[dict[str, Any]]:
        return [
            event for event in self.events if event.get("phase") in phases
        ]

    def children_of(self, span_id: str) -> list[dict[str, Any]]:
        return [
            event
            for event in self.events
            if str(event.get("parent", "")) == span_id
        ]


def assemble_traces(
    records: Iterable[Mapping[str, Any]]
) -> dict[str, TraceTree]:
    """Group raw trace records into per-trace trees (insertion order).

    Records without a ``trace`` field (flat single-process events, e.g.
    from ``serve-bench``) are skipped — they belong to no tree.
    """
    trees: dict[str, TraceTree] = {}
    for record in records:
        trace_id = str(record.get("trace") or "")
        if not trace_id:
            continue
        tree = trees.get(trace_id)
        if tree is None:
            tree = TraceTree(trace_id=trace_id)
            trees[trace_id] = tree
        tree.events.append(dict(record))
    return trees


def segments(tree: TraceTree) -> dict[str, float]:
    """One request's waterfall decomposition (milliseconds).

    ``route + queue + coalesce_wait + execute`` sums to ``total`` (the
    root span's duration; ``route`` is the clamped residual).
    ``acquire`` and ``plan`` nest *inside* ``execute``.
    """
    total = tree.total_ms
    execute = sum(
        float(event.get("ms") or 0.0)
        for event in tree.phase_events(*_EXECUTE_PHASES)
    )
    queue = sum(
        float(event.get("queue_ms") or 0.0)
        for event in tree.phase_events(*_EXECUTE_PHASES)
    )
    acquire = sum(
        float(event.get("ms") or 0.0)
        for event in tree.phase_events(*_ACQUIRE_PHASES)
    )
    plan = sum(
        float(event.get("ms") or 0.0)
        for event in tree.phase_events(*_PLAN_PHASES)
    )
    root = tree.root or {}
    coalesce_wait = 0.0
    if execute == 0.0 and (
        root.get("coalesced") or tree.phase_events(*_COALESCE_PHASES)
    ):
        # A follower's entire life is waiting on the leader's execution.
        coalesce_wait = total
    route = max(0.0, total - queue - execute - coalesce_wait)
    return {
        "total": round(total, 3),
        "route": round(route, 3),
        "queue": round(queue, 3),
        "coalesce_wait": round(coalesce_wait, 3),
        "execute": round(execute, 3),
        "acquire": round(acquire, 3),
        "plan": round(plan, 3),
    }


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sequence."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def latency_decomposition(
    trees: Sequence[TraceTree], percentile: float = 95.0
) -> dict[str, Any]:
    """Aggregate waterfall: where does the (tail) latency come from?

    For each segment: the p50 and p``percentile`` over all requests,
    the mean over the *tail* requests (those at or above the
    p``percentile`` total), and the tail share — the fraction of the
    tail's summed total the segment explains (nested sub-segments'
    shares are relative to the same denominator, so they overlap
    ``execute`` by construction).
    """
    rows = [segments(tree) for tree in trees if tree.root is not None]
    report: dict[str, Any] = {
        "requests": len(rows),
        "percentile": percentile,
        "segments": {},
    }
    if not rows:
        return report
    totals = sorted(row["total"] for row in rows)
    cut = _percentile(totals, percentile)
    tail = [row for row in rows if row["total"] >= cut] or rows
    tail_total = sum(row["total"] for row in tail)
    report["total_ms"] = {
        "p50": _percentile(totals, 50.0),
        f"p{percentile:g}": cut,
        "max": totals[-1],
    }
    for name in SEGMENTS:
        ordered = sorted(row[name] for row in rows)
        tail_sum = sum(row[name] for row in tail)
        report["segments"][name] = {
            "p50_ms": round(_percentile(ordered, 50.0), 3),
            f"p{percentile:g}_ms": round(
                _percentile(ordered, percentile), 3
            ),
            "tail_mean_ms": round(tail_sum / len(tail), 3),
            "tail_share": (
                round(tail_sum / tail_total, 4) if tail_total > 0 else 0.0
            ),
        }
    return report


def critical_paths(
    trees: Sequence[TraceTree], top: int = 5
) -> list[dict[str, Any]]:
    """The ``top`` slowest request trees, each with its dominant segment.

    Ties rank by trace id so the report is deterministic.
    """
    ranked = sorted(
        (tree for tree in trees if tree.root is not None),
        key=lambda tree: (-tree.total_ms, tree.trace_id),
    )
    paths: list[dict[str, Any]] = []
    for tree in ranked[: max(0, top)]:
        decomposed = segments(tree)
        dominant = "route"
        if decomposed["total"] > 0:
            dominant = max(_ADDITIVE, key=lambda name: decomposed[name])
        root = tree.root or {}
        paths.append(
            {
                "trace": tree.trace_id,
                "fingerprint": str(root.get("fingerprint", "")),
                "ok": bool(root.get("ok", False)),
                "shed": bool(root.get("shed", False)),
                "coalesced": bool(root.get("coalesced", False)),
                "rerouted": bool(tree.phase_events("reroute")),
                "dominant": dominant,
                "segments": decomposed,
            }
        )
    return paths


def trace_summary(trees: Sequence[TraceTree]) -> dict[str, Any]:
    """Completeness and outcome census over every assembled tree."""
    incomplete = sorted(
        tree.trace_id for tree in trees if not tree.complete
    )
    roots = [tree.root or {} for tree in trees]
    return {
        "traces": len(trees),
        "complete": sum(1 for tree in trees if tree.complete),
        "incomplete": incomplete[:20],
        "events": sum(len(tree.events) for tree in trees),
        "coalesced": sum(1 for root in roots if root.get("coalesced")),
        "shed": sum(1 for root in roots if root.get("shed")),
        "rerouted": sum(
            1 for tree in trees if tree.phase_events("reroute")
        ),
        "degraded": sum(
            1
            for tree in trees
            for event in tree.phase_events(*_EXECUTE_PHASES)
            if float(event.get("degraded", 0) or 0) > 0
        ),
    }


def attributed_costs(trees: Sequence[TraceTree]) -> dict[str, float]:
    """Per-shard acquisition cost as attributed by ``shard-execute`` spans.

    Sums ``where_cost + projection_cost`` over successful execution
    spans — the exact quantity each shard's ``acquisition_cost_total``
    gauge records per executed group (``retry_cost`` is a slice of
    ``where_cost``, annotated but never re-added).  Keys are shard ids
    as strings (JSON-stable).
    """
    per_shard: dict[str, float] = {}
    for tree in trees:
        for event in tree.phase_events(*_EXECUTE_PHASES):
            if not event.get("ok", False):
                continue
            shard = str(event.get("shard", ""))
            charge = float(event.get("where_cost", 0.0)) + float(
                event.get("projection_cost", 0.0)
            )
            per_shard[shard] = per_shard.get(shard, 0.0) + charge
    return per_shard


def shed_costs_avoided(trees: Sequence[TraceTree]) -> float:
    """Total ``cost_avoided`` attributed by shed / outage-shed events."""
    return sum(
        float(event.get("cost_avoided", 0.0) or 0.0)
        for tree in trees
        for event in tree.phase_events(*_SHED_PHASES)
    )


def reconcile_costs(
    trees: Sequence[TraceTree],
    shard_stats: Mapping[Any, Mapping[str, Any]],
    admission: Mapping[str, Any] | None = None,
    tolerance: float = 1e-6,
) -> dict[str, Any]:
    """Eq. 3 conservation check: span-attributed cost vs the ledgers.

    ``shard_stats`` maps shard id to that shard's ``service.stats()``
    dict (the ``shards`` section of ``ShardedServiceCluster.stats()``);
    the recorded side is each shard's ``acquisition_cost_total`` gauge.
    A shard appearing only on the attributed side (its process died
    before its ledger could be read) is reported with ``ok: None`` and
    excluded from the overall verdict — its spans are evidence, but
    there is no ledger left to check them against.  With ``admission``
    (the front door's admission snapshot) the shed ledger is checked
    the same way.  ``tolerance`` is relative to the recorded magnitude.
    """
    attributed = attributed_costs(trees)
    recorded: dict[str, float] = {}
    for shard_id, stats in shard_stats.items():
        gauges = stats.get("gauges", {})
        recorded[str(shard_id)] = float(
            gauges.get("acquisition_cost_total", 0.0)
        )
    shards: dict[str, Any] = {}
    overall = True
    for shard in sorted(set(attributed) | set(recorded)):
        span_side = attributed.get(shard, 0.0)
        ledger_side = recorded.get(shard)
        if ledger_side is None:
            shards[shard] = {
                "attributed": round(span_side, 6),
                "recorded": None,
                "ok": None,
                "note": "shard ledger unavailable (outage)",
            }
            continue
        matched = Ledger(base_cost=span_side).conserved(ledger_side, tolerance)
        shards[shard] = {
            "attributed": round(span_side, 6),
            "recorded": round(ledger_side, 6),
            "ok": matched,
        }
        overall = overall and matched
    report: dict[str, Any] = {"shards": shards, "ok": overall}
    if admission is not None:
        shed_attributed = shed_costs_avoided(trees)
        shed_recorded = float(admission.get("shed_cost_avoided", 0.0))
        shed_ok = Ledger(shed_cost=shed_attributed).conserved(
            shed_recorded, tolerance
        )
        report["shed"] = {
            "attributed": round(shed_attributed, 6),
            "recorded": round(shed_recorded, 6),
            "ok": shed_ok,
        }
        report["ok"] = overall and shed_ok
    return report
