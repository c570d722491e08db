"""Thread-safety of the serving layer's shared structures.

The sharded tier hands a metrics registry to a reply-reader thread and
an event loop at once, and a plan cache may see concurrent access from
embedding applications; these tests hammer both from many threads and
assert nothing is lost or torn.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.service.cache import PlanCache
from repro.service.metrics import MetricsRegistry, merge_snapshots

THREADS = 8
ROUNDS = 500


def _run_threads(target) -> None:
    workers = [
        threading.Thread(target=target, args=(worker,))
        for worker in range(THREADS)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()


class TestMetricsUnderThreads:
    def test_counter_increments_are_not_lost(self) -> None:
        registry = MetricsRegistry()

        def hammer(_worker: int) -> None:
            counter = registry.counter("hits")
            for _ in range(ROUNDS):
                counter.increment()

        _run_threads(hammer)
        assert registry.snapshot()["counters"]["hits"] == THREADS * ROUNDS

    def test_labeled_counter_series_are_consistent(self) -> None:
        registry = MetricsRegistry()

        def hammer(worker: int) -> None:
            family = registry.labeled_counter("events", "kind")
            for i in range(ROUNDS):
                family.labels(kind=f"kind-{(worker + i) % 3}").increment()

        _run_threads(hammer)
        family = registry.snapshot()["labeled_counters"]["events"]
        total = sum(series["value"] for series in family["series"])
        assert total == THREADS * ROUNDS
        assert len(family["series"]) == 3

    def test_histogram_observations_all_land(self) -> None:
        registry = MetricsRegistry()

        def hammer(worker: int) -> None:
            histogram = registry.histogram("latency")
            for i in range(ROUNDS):
                histogram.observe(0.001 * (worker + 1) + 1e-6 * i)

        _run_threads(hammer)
        snapshot = registry.snapshot()["histograms"]["latency"]
        assert snapshot["count"] == THREADS * ROUNDS

    def test_registry_lookup_or_create_races_yield_one_instance(self) -> None:
        registry = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(THREADS)

        def hammer(_worker: int) -> None:
            barrier.wait()
            seen.append(id(registry.counter("shared")))

        _run_threads(hammer)
        assert len(set(seen)) == 1


class TestCacheUnderThreads:
    def test_concurrent_put_get_never_tears(self) -> None:
        cache: PlanCache[str, int] = PlanCache(capacity=64)
        errors: list[Exception] = []

        def hammer(worker: int) -> None:
            try:
                for i in range(ROUNDS):
                    key = f"shape-{(worker * ROUNDS + i) % 96}"
                    value = cache.get(key, version=1)
                    if value is None:
                        cache.put(key, version=1, value=worker)
                    else:
                        assert 0 <= value < THREADS
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        _run_threads(hammer)
        assert not errors
        assert len(cache) <= 64
        stats = cache.stats()
        assert stats.lookups == THREADS * ROUNDS

    def test_concurrent_invalidation_is_clean(self) -> None:
        cache: PlanCache[str, int] = PlanCache(capacity=128)
        errors: list[Exception] = []

        def hammer(worker: int) -> None:
            try:
                for i in range(ROUNDS):
                    version = 1 + (i // 100)
                    cache.put(f"shape-{worker}-{i % 16}", version, i)
                    cache.get(f"shape-{worker}-{i % 16}", version)
                    if i % 50 == 49:
                        cache.invalidate_stale(version)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        _run_threads(hammer)
        assert not errors
        # Every surviving entry must carry the final version.
        final = 1 + (ROUNDS - 1) // 100
        assert cache.invalidate_stale(final) == 0

    def test_recertifying_invalidation_never_serves_a_wrong_generation(
        self,
    ) -> None:
        # Values carry the generation they were stamped for; a re-stamp
        # that landed in a slot a concurrent put had replaced, or a torn
        # (version, value) update, would serve a mismatched pair.
        cache: PlanCache[str, tuple[int, int]] = PlanCache(
            capacity=32, policy="lfu"
        )
        errors: list[Exception] = []

        def hammer(worker: int) -> None:
            try:
                for i in range(ROUNDS):
                    version = 1 + i // 100
                    key = f"shape-{(worker + i) % 24}"
                    value = cache.get(key, version)
                    if value is None:
                        cache.put(key, version, (version, worker))
                    else:
                        assert value[0] == version
                    if i % 50 == 49:
                        cache.invalidate_stale(
                            version,
                            lambda _key, value, target=version: (
                                (target, value[1]) if value[1] % 2 else None
                            ),
                        )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        workers = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert not errors


class TestMergeSnapshots:
    def test_counters_and_series_sum(self) -> None:
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("queries").increment(3)
        b.counter("queries").increment(4)
        b.counter("only_b").increment()
        a.labeled_counter("events", "kind").labels(kind="hit").increment(2)
        b.labeled_counter("events", "kind").labels(kind="hit").increment(5)
        b.labeled_counter("events", "kind").labels(kind="miss").increment(1)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"] == {"queries": 7, "only_b": 1}
        series = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in merged["labeled_counters"]["events"]["series"]
        }
        assert series == {(("kind", "hit"),): 7, (("kind", "miss"),): 1}

    def test_version_gauges_take_max_others_sum(self) -> None:
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.gauge("cache_size").set(10)
        b.gauge("cache_size").set(5)
        a.gauge("statistics_version").set(3)
        b.gauge("statistics_version").set(7)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["gauges"]["cache_size"] == 15
        assert merged["gauges"]["statistics_version"] == 7

    def test_histograms_merge_conservatively(self) -> None:
        a = MetricsRegistry()
        b = MetricsRegistry()
        for _ in range(10):
            a.histogram("latency").observe(0.010)
        for _ in range(30):
            b.histogram("latency").observe(0.050)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        histogram = merged["histograms"]["latency"]
        assert histogram["count"] == 40
        assert histogram["mean_ms"] == pytest.approx(
            (10 * 10.0 + 30 * 50.0) / 40, rel=1e-6
        )
        assert histogram["max_ms"] == pytest.approx(50.0, rel=1e-6)

    def test_empty_merge_is_empty(self) -> None:
        merged = merge_snapshots([])
        assert merged == {
            "counters": {},
            "gauges": {},
            "labeled_counters": {},
            "histograms": {},
        }
