"""The multiprocessing backend: real workers, queues, and outages.

Kept deliberately small — every behaviour is already covered by the
deterministic in-process tests; this file only proves the process
plumbing (spawn, IPC marshalling, reply thread, shutdown, kill).
"""

from __future__ import annotations

import asyncio
import io
import json

import pytest

from tests.conftest import make_day_night_data
from repro.cluster import ClusterConfig, ShardConfig, ShardedServiceCluster
from repro.core import Attribute, Schema
from repro.obs import Tracer, assemble_traces, reconcile_costs, trace_summary

SCHEMA = Schema(
    [
        Attribute("hour", 2, 0.0),
        Attribute("temp", 2, 1.0),
        Attribute("light", 2, 1.0),
    ]
)
HISTORY = make_day_night_data()
READINGS = HISTORY[:40]
QUERY = "SELECT temp WHERE temp = 2 AND light = 2"
SHAPES = [
    "SELECT temp WHERE temp = 2",
    "SELECT light WHERE light = 2",
    "SELECT hour WHERE hour = 1 AND temp = 2",
]
EQ3_FIELDS = ("rows", "tuples", "where_cost", "projection_cost")


@pytest.mark.slow
def test_process_cluster_serves_and_survives_an_outage() -> None:
    async def main() -> None:
        config = ClusterConfig(
            shard_config=ShardConfig(schema=SCHEMA, history=HISTORY),
            shards=2,
            backend="process",
            request_timeout=60.0,
        )
        async with ShardedServiceCluster(config) as cluster:
            wave = await cluster.execute_many([(QUERY, READINGS)] * 6)
            assert all(r.ok for r in wave)
            assert len({r.result.rows for r in wave}) == 1
            assert sum(r.coalesced for r in wave) == 5

            stats = await cluster.stats()
            assert sorted(stats["shards"]) == [0, 1]
            # front-door coalescing: one execution crossed the boundary
            assert stats["merged_metrics"]["counters"]["queries"] == 1

            # chaos across the process boundary is still deterministic
            schedule = {"faults": {"temp": {"drop_rate": 0.4}}}
            chaos_a = await cluster.execute(
                QUERY, READINGS, fault_schedule=schedule, fault_seed=3,
                degradation="skip",
            )
            assert chaos_a.ok

            victim = wave[0].shard
            cluster.induce_outage(victim)
            assert cluster.live_shards == frozenset({1 - victim})
            after = await cluster.execute(QUERY, READINGS)
            assert after.ok and after.shard == 1 - victim
            assert after.result.rows == wave[0].result.rows

            exposition = await cluster.prometheus()
            assert f'shard="{1 - victim}"' in exposition

    asyncio.run(main())


@pytest.mark.slow
def test_process_chaos_matches_inproc_chaos() -> None:
    schedule = {"faults": {"temp": {"drop_rate": 0.4}}}

    async def run(backend: str) -> object:
        config = ClusterConfig(
            shard_config=ShardConfig(schema=SCHEMA, history=HISTORY),
            shards=2,
            backend=backend,
        )
        async with ShardedServiceCluster(config) as cluster:
            response = await cluster.execute(
                QUERY, READINGS, fault_schedule=schedule, fault_seed=17,
                degradation="abstain",
            )
            assert response.ok
            return response.payload

    via_process = asyncio.run(run("process"))
    via_inproc = asyncio.run(run("inproc"))
    assert via_process.result.rows == via_inproc.result.rows
    assert via_process.abstained_rows == via_inproc.abstained_rows
    assert via_process.retries_total == via_inproc.retries_total


@pytest.mark.slow
def test_traced_process_cluster_ships_span_records() -> None:
    # Span records cross the process boundary pickled and are encoded
    # only by the front door's tracer: every request's tree is complete,
    # each shard span keeps its Eq. 3 fields, and they reconcile with
    # the shards' ledgers.
    stream = io.StringIO()

    async def main() -> None:
        config = ClusterConfig(
            shard_config=ShardConfig(schema=SCHEMA, history=HISTORY),
            shards=2,
            backend="process",
            tracing=True,
            request_timeout=60.0,
        )
        tracer = Tracer(stream=stream, name="fd")
        async with ShardedServiceCluster(config, tracer=tracer) as cluster:
            wave = [(QUERY, READINGS)] * 2 + [
                (shape, READINGS) for shape in SHAPES
            ]
            responses = await cluster.execute_many(wave)
            assert all(r.ok for r in responses)
            assert sum(r.coalesced for r in responses) == 1
            stats = await cluster.stats()

        records = [event.as_dict() for event in cluster.tracer.events]
        trees = assemble_traces(records)
        summary = trace_summary(list(trees.values()))
        assert summary["traces"] == len(responses)
        assert summary["complete"] == len(responses)
        assert summary["coalesced"] == 1
        executes = [r for r in records if r["phase"] == "shard-execute"]
        assert len(executes) == len(responses) - 1
        for record in executes:
            assert record["ok"] is True
            assert all(name in record for name in EQ3_FIELDS)
        assert sum(r["where_cost"] for r in executes) > 0
        report = reconcile_costs(
            list(trees.values()), stats["shards"], stats["front_door"]["admission"]
        )
        assert report["ok"], report
        # The stream holds exactly the buffered records, one line each.
        lines = stream.getvalue().splitlines()
        assert [json.loads(line) for line in lines] == records

    asyncio.run(main())
