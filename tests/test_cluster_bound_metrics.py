"""The front door's serving-path metrics, bound once on first use.

``requests``, ``requests_dispatched`` and the ``request`` latency
histogram are resolved on first use rather than looked up per request.
A fresh cluster lists none of them; after a fixed sequence of requests,
one of them coalesced, every front-door counter and histogram count and
the shard's ``queries`` and ``acquisition_cost_total`` equal the events
served, in the snapshot and in the Prometheus text alike.
"""

from __future__ import annotations

import asyncio

from repro.obs import parse_prometheus

from tests.test_cluster_frontdoor import HISTORY, QUERY, make_cluster

REQUEST_SERIES = {"requests", "requests_dispatched", "requests_coalesced"}


def test_series_appear_on_first_use_and_count_every_event() -> None:
    async def main() -> None:
        cluster = make_cluster()
        fresh = cluster.front_door_stats()
        assert not REQUEST_SERIES & set(fresh["counters"])
        assert fresh["latency"] == {}
        async with cluster:
            responses = [
                await cluster.execute(QUERY, HISTORY[start : start + 40])
                for start in (0, 40, 80)
            ]
            responses += await cluster.execute_many([(QUERY, HISTORY[120:160])] * 2)
            assert all(response.ok for response in responses)
            assert [response.coalesced for response in responses] == [
                False, False, False, False, True,
            ]
            stats = await cluster.stats()
            exposition = await cluster.prometheus()
        front = stats["front_door"]
        assert {name: front["counters"][name] for name in REQUEST_SERIES} == {
            "requests": 5,
            "requests_dispatched": 4,
            "requests_coalesced": 1,
        }
        assert front["counters"]["slo_requests"] == 5
        assert front["latency"]["request"]["count"] == 5
        # One statement routes to one shard; the coalesced follower
        # shares its leader's execution.
        merged = stats["merged_metrics"]
        assert merged["counters"]["queries"] == 4
        assert merged["histograms"]["execution"]["count"] == 4
        ledger = 0.0
        for response in responses[:4]:
            ledger += response.result.total_cost
        assert merged["gauges"]["acquisition_cost_total"] == ledger
        samples = parse_prometheus(exposition)
        assert samples['repro_requests_total{shard="front_door"}'] == 5
        assert samples['repro_requests_dispatched_total{shard="front_door"}'] == 4

    asyncio.run(main())
