"""One parse per statement text: the service's and the front door's memo.

Parsing and canonicalization depend only on the schema, so both tiers
keep a bounded text-keyed :class:`StatementMemo` and never parse a
spelling twice.  Statistics bumps do not touch it: the plan cache, not
the memo, carries the statistics version.
"""

from __future__ import annotations

import asyncio
import pickle

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ShardConfig, ShardedServiceCluster
from repro.core import Attribute, Schema
from repro.engine import AcquisitionalEngine
from repro.engine.language import ParsedQuery
from repro.exceptions import QueryError
from repro.faults import FaultSchedule
from repro.service import AcquisitionalService, fingerprint_statement
from repro.service.fingerprint import (
    STATEMENT_MEMO_CAPACITY,
    QueryFingerprint,
    StatementMemo,
)

from tests.conftest import correlated_dataset
from tests.test_cluster_frontdoor import HISTORY, SCHEMA, SHAPES
from tests.test_service_cache import make_history

BAD = ["SELECT a WHERE a <=", "SELECT * WHERE", "SELECT * WHERE a <= 0"]


@pytest.fixture
def service():
    schema, data = correlated_dataset(n_rows=1200, seed=4)
    return AcquisitionalService(AcquisitionalEngine(schema, data[:800]))


class TestStatementMemo:
    def test_loads_each_text_once(self):
        calls = []

        def load(text):
            calls.append(text)
            return text.upper()

        memo = StatementMemo(load)
        assert [memo.lookup(t) for t in ("a", "b", "a", "a")] == [
            "A",
            "B",
            "A",
            "A",
        ]
        assert calls == ["a", "b"]
        assert len(memo._entries) == 2

    def test_bounded_by_the_shared_capacity(self):
        memo = StatementMemo(str.upper)
        for index in range(STATEMENT_MEMO_CAPACITY):
            memo.lookup(f"s{index}")
        assert len(memo._entries) == STATEMENT_MEMO_CAPACITY
        memo.lookup("one more")  # full: clear and start over
        assert len(memo._entries) == 1
        assert memo.lookup("one more") == "ONE MORE"

    def test_service_memo_stays_bounded(self, service):
        for index in range(STATEMENT_MEMO_CAPACITY + 10):
            service.fingerprint(f"SELECT a WHERE a <= {index + 1}")
        assert 0 < len(service._statements._entries) <= STATEMENT_MEMO_CAPACITY


class TestUnparseableText:
    @pytest.mark.parametrize("text", BAD)
    def test_raises_on_every_call_and_is_never_memoised(self, service, text):
        live = np.ones((4, 4), dtype=np.int64)
        for _ in range(3):
            with pytest.raises(QueryError):
                service.fingerprint(text)
            with pytest.raises(QueryError):
                service.execute(text, live)
            with pytest.raises(QueryError):
                service.execute_batch([(text, live)])
        assert len(service._statements._entries) == 0

    def test_front_door_never_memoises_a_bad_statement(self):
        async def main() -> None:
            async with _cluster() as cluster:
                for _ in range(2):
                    with pytest.raises(QueryError):
                        await cluster.execute("SELECT temp WHERE", HISTORY[:8])
                assert len(cluster._digests._entries) == 0

        asyncio.run(main())


class TestStatisticsBumps:
    def test_serving_after_refit_uses_the_new_generation(self):
        schema = Schema(
            [
                Attribute("hour", 4, 1.0),
                Attribute("temp", 4, 100.0),
                Attribute("light", 4, 100.0),
            ]
        )
        engine = AcquisitionalEngine(schema, make_history(schema))
        service = AcquisitionalService(engine)
        text = "SELECT * WHERE temp >= 3 AND light >= 3"
        live = make_history(schema, seed=7)[:200]
        old = service.plan_for(text)
        service.execute(text, live)
        version = service.refit(make_history(schema, seed=8, shifted=True))
        result = service.execute(text, live)
        new = service.plan_for(text)
        assert new.statistics_version == version == old.statistics_version + 1
        # The shifted world flips which predicate filters first.
        assert new.plan != old.plan
        assert result == engine.execute_prepared(new, live)
        # The memo survived the bump: no text was parsed again.
        assert len(service._statements._entries) == 1


class TestDigests:
    def test_memoised_digests_match_fingerprint_statement(self):
        async def main() -> None:
            async with _cluster() as cluster:
                for shape in SHAPES:
                    digest = cluster._digests.lookup(shape)
                    assert digest == str(fingerprint_statement(shape, SCHEMA))
                    assert cluster._digests.lookup(shape) is digest

        asyncio.run(main())

    def test_service_fingerprint_matches_fingerprint_statement(self, service):
        text = "SELECT b, a WHERE b >= 3 AND mode <= 2"
        schema = service.engine.schema
        assert service.fingerprint(text) == fingerprint_statement(text, schema)
        assert service.fingerprint(text) is service.fingerprint(text)


class TestMemoisedValuesAreImmutable:
    def test_served_statements_are_never_mutated(self, service):
        """Every memo lookup shares one ParsedQuery; serving must not touch it.

        ``ParsedQuery``, its query, predicates and the fingerprint are
        frozen dataclasses, so attribute assignment raises; this checks
        the pickled state too, which would also catch in-place edits of
        a mutable member.
        """
        text = "SELECT c WHERE mode <= 2 AND a <= 2"
        parsed, fingerprint = service._statements.lookup(text)
        before = pickle.dumps((parsed, fingerprint))
        schema = service.engine.schema
        _schema, data = correlated_dataset(n_rows=1200, seed=4)
        live = data[800:]
        service.execute(text, live)
        service.execute_batch([(text, live[:100]), (text, live[100:])])
        service.execute_resilient(
            text,
            live,
            FaultSchedule.uniform(schema, drop_rate=0.2),
            np.random.default_rng(0),
        )
        service.plan_for(text)
        service.stream_executor(text).process(live[:50])
        service.learned_stream_executor(text).process(live[:50])
        assert service._statements.lookup(text)[0] is parsed
        assert pickle.dumps((parsed, fingerprint)) == before
        for frozen in (parsed, parsed.query, fingerprint):
            with pytest.raises(AttributeError):
                frozen.select = ()  # type: ignore[misc]
        assert isinstance(parsed, ParsedQuery)
        assert isinstance(fingerprint, QueryFingerprint)


def _cluster(**overrides) -> ShardedServiceCluster:
    return ShardedServiceCluster(
        ClusterConfig(
            shard_config=ShardConfig(schema=SCHEMA, history=HISTORY),
            shards=2,
            backend="inproc",
            **overrides,
        )
    )


def test_sharded_tier_looks_each_request_up_once() -> None:
    """Merged cache hits plus misses equal the queries the shards served."""

    async def main() -> dict:
        async with _cluster() as cluster:
            window = HISTORY[:40]
            warm = await cluster.execute_many(
                [(shape, window) for shape in SHAPES]
            )
            assert all(response.ok for response in warm)
            for position in range(60):
                shape = SHAPES[position % len(SHAPES)]
                start = (position * 7) % (len(HISTORY) - 40)
                response = await cluster.execute(
                    shape, HISTORY[start : start + 40]
                )
                assert response.ok
            return (await cluster.stats())["merged_metrics"]

    merged = asyncio.run(main())
    events = {
        entry["labels"]["event"]: entry["value"]
        for entry in merged["labeled_counters"]["cache_events"]["series"]
    }
    queries = merged["counters"]["queries"]
    assert queries == len(SHAPES) + 60
    assert events["hit"] + events["miss"] == queries
    assert events["miss"] == len(SHAPES)
