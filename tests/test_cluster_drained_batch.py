"""A drained shard batch goes through one ``serve`` call.

``ShardServer.handle_batch`` serves every request of a drained batch
through :meth:`AcquisitionalService.serve` once: plain requests sharing
a fingerprint run in one stacked pass, a failing request becomes its own
error reply, every other request runs exactly once, and a traced plain
request carries its service events under its own ``shard-execute`` span.
The shard merges no duplicates; coalescing is the front door's job.
"""

from __future__ import annotations

import asyncio
import functools

import pytest

from tests.conftest import make_day_night_data
from repro.cluster import (
    ClusterConfig,
    ShardConfig,
    ShardedServiceCluster,
    ShardServer,
)
from repro.cluster.messages import ControlReply, ControlRequest, ExecuteRequest
from repro.core import Attribute, Schema
from repro.engine import ResilientQueryResult
from repro.faults import policy as fault_policy
from repro.obs import Tracer, TraceTree, assemble_traces

SCHEMA = Schema(
    [
        Attribute("hour", 2, 0.0),
        Attribute("temp", 2, 1.0),
        Attribute("light", 2, 1.0),
    ]
)
HISTORY = make_day_night_data()
READINGS = HISTORY[:40]
CHAOS = {"faults": {"temp": {"drop_rate": 0.4}}}
A = "SELECT temp WHERE temp = 2"
B = "SELECT light WHERE light = 2"
C = "SELECT temp WHERE temp = 1 AND light = 2"
F = "SELECT temp WHERE temp = 2 AND light = 2"
G = "SELECT light WHERE temp = 2 AND light = 1"


def server() -> ShardServer:
    config = ShardConfig(schema=SCHEMA, history=HISTORY, profiling=True)
    return ShardServer(0, config)


def batch() -> list[ExecuteRequest]:
    faulted = dict(readings=READINGS, fault_schedule=CHAOS, fault_seed=23)
    return [
        ExecuteRequest(request_id=1, text=A, readings=READINGS),
        # Wrong width: two columns against a three-attribute schema.
        ExecuteRequest(request_id=2, text=B, readings=READINGS[:, :2]),
        ExecuteRequest(request_id=3, text=C, readings=READINGS),
        ExecuteRequest(request_id=4, text=A, readings=READINGS),
        ExecuteRequest(request_id=5, text=F, degradation="skip", **faulted),
        ExecuteRequest(request_id=6, text=G, degradation="impute", **faulted),
    ]


@pytest.fixture
def unconfirmed_policies(monkeypatch):
    """Shard fault policies with ``confirm_positives`` off.

    The wire request cannot ask for it, so this is the one way to send
    the shard a faulted request whose IMPUTE policy fails FT001.
    """
    policy = functools.partial(fault_policy.FaultPolicy, confirm_positives=False)
    monkeypatch.setattr(fault_policy, "FaultPolicy", policy)


def test_a_failing_group_fails_alone_and_nothing_runs_twice(
    unconfirmed_policies,
) -> None:
    shard = server()
    replies = shard.handle_batch(batch())

    assert [reply.request_id for reply in replies] == [1, 2, 3, 4, 5, 6]
    assert [reply.ok for reply in replies] == [True, False, True, True, True, False]
    assert "readings shape" in replies[1].error
    assert "FT001" in replies[5].error
    assert isinstance(replies[4].payload, ResilientQueryResult)

    # Each payload and Eq. 3 expectation equals the request served alone.
    for reply, request in zip(replies, batch()):
        (alone,) = server().handle_batch([request])
        assert reply.ok == alone.ok
        assert reply.payload == alone.payload
        assert reply.expected_where_cost == alone.expected_where_cost
        assert (reply.expected_where_cost > 0) == reply.ok

    counters = shard.service.stats()["counters"]
    assert counters["queries"] == 6  # every request, both A's included
    # Both A requests ran in one stacked pass: A, C and F are the only
    # executions (B and G failed before executing).
    assert shard.service.metrics.histogram("execution").count == 3
    assert shard.service.profile_for(A).tuples == 2 * len(READINGS)
    charged = 0.0
    for reply in (replies[0], replies[2], replies[3], replies[4]):
        payload = reply.payload
        if isinstance(payload, ResilientQueryResult):
            payload = payload.result
        charged += payload.total_cost
    assert shard.service.metrics.gauge("acquisition_cost_total").value == charged


def test_traced_cold_plain_request_nests_plan_and_execute() -> None:
    async def main() -> TraceTree:
        config = ClusterConfig(
            shard_config=ShardConfig(schema=SCHEMA, history=HISTORY),
            shards=2,
            backend="inproc",
            tracing=True,
        )
        tracer = Tracer(name="fd")
        async with ShardedServiceCluster(config, tracer=tracer) as cluster:
            response = await cluster.execute(A, READINGS)
            assert response.ok
        trees = assemble_traces(event.as_dict() for event in tracer.events)
        return trees[response.trace_id]

    tree = asyncio.run(main())
    assert tree.complete
    (span,) = tree.phase_events("shard-execute")
    nested = [
        event["phase"] for event in tree.events if event.get("parent") == span["span"]
    ]
    assert nested == ["cache-miss", "plan", "verify", "execute"]


def test_handle_splits_at_controls_and_chunks_by_window(monkeypatch) -> None:
    chunks: list[list[int]] = []
    handle_batch = ShardServer.handle_batch

    def spy(self, requests):
        chunks.append([request.request_id for request in requests])
        return handle_batch(self, requests)

    monkeypatch.setattr(ShardServer, "handle_batch", spy)
    shard = ShardServer(
        0, ShardConfig(schema=SCHEMA, history=HISTORY, batch_window=2)
    )

    def plain(request_id: int) -> ExecuteRequest:
        return ExecuteRequest(request_id=request_id, text=A, readings=READINGS)

    replies = shard.handle(
        [
            plain(1),
            plain(2),
            plain(3),
            ControlRequest(request_id=10, kind="sync_version", version=3),
            plain(4),
            ControlRequest(request_id=11, kind="shutdown"),
            plain(5),
        ]
    )
    assert chunks == [[1, 2], [3], [4]]
    # Replies in arrival order; nothing after the shutdown is served.
    assert [reply.request_id for reply in replies] == [1, 2, 3, 10, 4, 11]
    assert isinstance(replies[3], ControlReply)
    # The sync applied between the batches around it.
    assert [reply.statistics_version for reply in replies[:3]] == [1, 1, 1]
    assert replies[4].statistics_version == 3
    assert all(reply.ok for reply in replies if not isinstance(reply, ControlReply))
