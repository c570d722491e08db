"""Trace-tree assembly, waterfall analysis, and the Eq. 3 audit."""

from __future__ import annotations

import pytest

from repro.cluster import AdmissionController
from repro.obs import (
    SEGMENTS,
    assemble_traces,
    attributed_costs,
    critical_paths,
    latency_decomposition,
    reconcile_costs,
    segments,
    shed_costs_avoided,
    trace_summary,
)


def _request_tree(
    trace: str,
    total: float,
    *,
    execute: float = 0.0,
    queue: float = 0.0,
    coalesced: bool = False,
    shard: int = 0,
    where: float = 0.0,
    projection: float = 0.0,
    ok: bool = True,
) -> list[dict]:
    """The merged records of one request, front-door root first."""
    root_span = f"{trace}-root"
    records = [
        {
            "ts": 1.0,
            "span": root_span,
            "phase": "request",
            "trace": trace,
            "ms": total,
            "fingerprint": "ff",
            "ok": ok,
            "coalesced": coalesced,
        }
    ]
    if execute > 0.0:
        records.append(
            {
                "ts": 1.0,
                "span": f"{trace}-exec",
                "phase": "shard-execute",
                "trace": trace,
                "parent": root_span,
                "ms": execute,
                "queue_ms": queue,
                "shard": shard,
                "ok": ok,
                "where_cost": where,
                "projection_cost": projection,
            }
        )
    elif coalesced:
        records.append(
            {
                "ts": 1.0,
                "phase": "coalesce-attach",
                "trace": trace,
                "parent": root_span,
                "leader_trace": "other",
            }
        )
    return records


class TestAssembly:
    def test_groups_records_by_trace(self):
        records = _request_tree("t1", 5.0, execute=2.0) + _request_tree(
            "t2", 1.0, coalesced=True
        )
        trees = assemble_traces(records)
        assert set(trees) == {"t1", "t2"}
        assert len(trees["t1"].events) == 2

    def test_skips_flat_events(self):
        trees = assemble_traces([{"ts": 1.0, "span": "s1", "phase": "plan"}])
        assert trees == {}

    def test_completeness_requires_one_root_and_no_orphans(self):
        (tree,) = assemble_traces(_request_tree("t1", 5.0, execute=2.0)).values()
        assert tree.complete
        assert tree.root is not None
        assert tree.total_ms == 5.0
        orphan = {
            "ts": 1.0,
            "span": "x",
            "phase": "plan",
            "trace": "t1",
            "parent": "never-seen",
        }
        (broken,) = assemble_traces(
            _request_tree("t1", 5.0) + [orphan]
        ).values()
        assert not broken.complete
        assert broken.orphans == [orphan]

    def test_two_roots_is_incomplete(self):
        records = _request_tree("t1", 5.0)
        records += [dict(records[0], span="t1-root2")]
        (tree,) = assemble_traces(records).values()
        assert tree.root is None
        assert not tree.complete


class TestSegments:
    def test_additive_segments_sum_to_total(self):
        (tree,) = assemble_traces(
            _request_tree("t1", 10.0, execute=4.0, queue=3.0)
        ).values()
        row = segments(tree)
        assert row["total"] == 10.0
        assert row["execute"] == 4.0
        assert row["queue"] == 3.0
        assert row["coalesce_wait"] == 0.0
        assert row["route"] == 3.0  # the clamped residual

    def test_coalesced_follower_is_pure_wait(self):
        (tree,) = assemble_traces(
            _request_tree("t1", 2.0, coalesced=True)
        ).values()
        row = segments(tree)
        assert row["coalesce_wait"] == 2.0
        assert row["execute"] == 0.0
        assert row["route"] == 0.0

    def test_route_never_goes_negative(self):
        # Clock skew can make queue + execute exceed the root duration.
        (tree,) = assemble_traces(
            _request_tree("t1", 1.0, execute=4.0, queue=3.0)
        ).values()
        assert segments(tree)["route"] == 0.0


class TestDecomposition:
    def test_percentiles_and_tail_shares(self):
        records: list[dict] = []
        for index in range(9):
            records += _request_tree(f"t{index}", 1.0, execute=1.0)
        records += _request_tree("t9", 100.0, execute=99.0, queue=1.0)
        trees = list(assemble_traces(records).values())
        report = latency_decomposition(trees, percentile=95.0)
        assert report["requests"] == 10
        assert report["total_ms"]["p50"] == 1.0
        assert report["total_ms"]["p95"] == 100.0
        assert report["total_ms"]["max"] == 100.0
        assert set(report["segments"]) == set(SEGMENTS)
        # The tail (the one 100ms request) is all execute.
        assert report["segments"]["execute"]["tail_share"] == 0.99
        assert report["segments"]["queue"]["tail_share"] == 0.01

    def test_empty_input(self):
        report = latency_decomposition([])
        assert report["requests"] == 0
        assert report["segments"] == {}


class TestCriticalPaths:
    def test_ranked_by_duration_with_dominant_segment(self):
        records = (
            _request_tree("a", 5.0, execute=4.0)
            + _request_tree("b", 9.0, execute=2.0, queue=6.0)
            + _request_tree("c", 1.0, coalesced=True)
        )
        trees = list(assemble_traces(records).values())
        paths = critical_paths(trees, top=2)
        assert [p["trace"] for p in paths] == ["b", "a"]
        assert paths[0]["dominant"] == "queue"
        assert paths[1]["dominant"] == "execute"

    def test_ties_rank_by_trace_id(self):
        records = _request_tree("z", 5.0) + _request_tree("a", 5.0)
        trees = list(assemble_traces(records).values())
        assert [p["trace"] for p in critical_paths(trees)] == ["a", "z"]


class TestSummary:
    def test_census_counts_outcomes(self):
        records = (
            _request_tree("t1", 5.0, execute=2.0)
            + _request_tree("t2", 1.0, coalesced=True)
            + _request_tree("t3", 0.5, ok=False)
        )
        records[-1]["shed"] = True
        trees = list(assemble_traces(records).values())
        summary = trace_summary(trees)
        assert summary["traces"] == 3
        assert summary["complete"] == 3
        assert summary["coalesced"] == 1
        assert summary["shed"] == 1
        assert summary["incomplete"] == []


class TestReconciliation:
    def _stats(self, cost: float) -> dict:
        return {"gauges": {"acquisition_cost_total": cost}}

    def test_matching_ledgers_reconcile(self):
        records = _request_tree(
            "t1", 5.0, execute=2.0, shard=0, where=30.0, projection=10.0
        ) + _request_tree(
            "t2", 5.0, execute=2.0, shard=1, where=7.0, projection=0.0
        )
        trees = list(assemble_traces(records).values())
        assert attributed_costs(trees) == {"0": 40.0, "1": 7.0}
        report = reconcile_costs(
            trees, {0: self._stats(40.0), 1: self._stats(7.0)}
        )
        assert report["ok"]
        assert report["shards"]["0"]["ok"] and report["shards"]["1"]["ok"]

    def test_drift_fails_the_check(self):
        records = _request_tree(
            "t1", 5.0, execute=2.0, shard=0, where=30.0, projection=10.0
        )
        trees = list(assemble_traces(records).values())
        report = reconcile_costs(trees, {0: self._stats(41.0)})
        assert not report["ok"]
        assert report["shards"]["0"]["ok"] is False

    def test_failed_spans_attribute_nothing(self):
        records = _request_tree(
            "t1", 5.0, execute=2.0, shard=0, where=30.0, ok=False
        )
        trees = list(assemble_traces(records).values())
        assert attributed_costs(trees) == {}

    def test_dead_shard_is_reported_not_failed(self):
        records = _request_tree(
            "t1", 5.0, execute=2.0, shard=3, where=5.0
        )
        trees = list(assemble_traces(records).values())
        report = reconcile_costs(trees, {})
        assert report["ok"]  # no live ledger disagreed
        assert report["shards"]["3"]["ok"] is None
        assert "outage" in report["shards"]["3"]["note"]

    def test_shed_ledger_reconciles_through_admission(self):
        records = _request_tree("t1", 0.1)
        records.append(
            {
                "ts": 1.0,
                "phase": "shed",
                "trace": "t1",
                "parent": "t1-root",
                "reason": "overload",
                "cost_avoided": 120.0,
            }
        )
        trees = list(assemble_traces(records).values())
        assert shed_costs_avoided(trees) == 120.0
        report = reconcile_costs(
            trees, {}, admission={"shed_cost_avoided": 120.0}
        )
        assert report["ok"] and report["shed"]["ok"]
        drifted = reconcile_costs(
            trees, {}, admission={"shed_cost_avoided": 4800.0}
        )
        assert not drifted["ok"] and not drifted["shed"]["ok"]

    def test_small_shed_total_reconciles_unrounded(self):
        # A shed total below ~50 is where a 4-decimal rounding of the
        # admission snapshot exceeds the 1e-6 relative tolerance.
        controller = AdmissionController()
        charged = controller.charge_shed(2.00004, 1)
        records = _request_tree("t1", 0.1)
        records.append(
            {
                "ts": 1.0,
                "phase": "shed",
                "trace": "t1",
                "parent": "t1-root",
                "reason": "overload",
                "cost_avoided": charged,
            }
        )
        trees = list(assemble_traces(records).values())
        admission = controller.snapshot()
        assert admission["shed_cost_avoided"] == 2.00004
        report = reconcile_costs(trees, {}, admission=admission)
        assert report["ok"] and report["shed"]["ok"]

    def test_tolerance_is_relative(self):
        records = _request_tree(
            "t1", 5.0, execute=2.0, shard=0, where=1e9
        )
        trees = list(assemble_traces(records).values())
        close = 1e9 * (1 + 1e-9)
        report = reconcile_costs(trees, {0: self._stats(close)})
        assert report["ok"]
        assert reconcile_costs(
            trees, {0: self._stats(close)}, tolerance=1e-12
        )["ok"] is False


def test_percentile_bounds_are_sane():
    trees = list(
        assemble_traces(_request_tree("t1", 5.0, execute=2.0)).values()
    )
    report = latency_decomposition(trees, percentile=100.0)
    assert report["total_ms"]["p100"] == 5.0
    with pytest.raises(KeyError):
        _ = report["total_ms"]["p95"]
