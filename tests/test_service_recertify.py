"""Re-certification of cached plans when the service refits its statistics.

The contract under test: a refit re-costs every cached plan under the
new distribution.  A plan whose Eq. 3 cost moved by less than the PAO
radius (``repro.learn.pao.recertify_radius``) is kept, re-stamped with
the new version and cost, and re-admitted through the verifier's cost
rules over that same re-costing walk; every other plan is dropped and
planned again.  Any other statistics bump still empties the cache.
Whatever the interleaving, no plan is served under a statistics version
it was neither planned nor re-certified under.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.service.service as service_module
from repro.analysis import certify_plan
from repro.core import Attribute, Schema
from repro.engine import AcquisitionalEngine
from repro.exceptions import DistributionError
from repro.obs import Tracer
from repro.service import AcquisitionalService, PlanCache
from repro.verify import verify_plan
from tests.test_service_cache import make_history
from tests.test_service_obs import regime_data

QUERIES = (
    "SELECT * WHERE temp >= 3 AND light >= 3",
    "SELECT hour WHERE temp >= 2",
    "SELECT * WHERE light <= 2 AND hour >= 2",
    "SELECT temp WHERE temp >= 3 AND light <= 1",
)


@pytest.fixture
def schema() -> Schema:
    return Schema(
        [
            Attribute("hour", 4, 1.0),
            Attribute("temp", 4, 100.0),
            Attribute("light", 4, 100.0),
        ]
    )


def new_service(
    schema: Schema, tracer: Tracer | None = None
) -> AcquisitionalService:
    engine = AcquisitionalEngine(schema, make_history(schema))
    return AcquisitionalService(
        engine, cache_capacity=8, cache_policy="lfu", tracer=tracer
    )


def counter(service: AcquisitionalService, name: str) -> int:
    return service.stats()["counters"].get(name, 0)


class TestPlanCacheRecertify:
    def test_restamped_entry_keeps_value_slot_and_frequency(self):
        cache: PlanCache = PlanCache(capacity=4, policy="lfu")
        cache.put("a", 1, "plan-a")
        cache.put("b", 1, "plan-b")
        for _lookup in range(3):
            cache.get("a", 1)
        dropped = cache.invalidate_stale(
            2, lambda key, value: value + "'" if key == "a" else None
        )
        assert dropped == 1
        assert "b" not in cache
        assert cache.get("a", 2) == "plan-a'"
        stats = cache.stats()
        assert stats.invalidations == 1 and stats.rejections == 0

    def test_one_off_keys_evict_the_cold_slot_not_a_restamped_hot_entry(self):
        cache: PlanCache = PlanCache(capacity=3, policy="lfu")
        for key in ("hot-1", "hot-2"):
            cache.put(key, 1, key)
            for _lookup in range(4):
                cache.get(key, 1)
        cache.put("cold", 1, "cold")
        cache.invalidate_stale(2, lambda _key, value: value)
        for one_off in range(10):
            cache.put(f"one-off-{one_off}", 2, "plan")
            assert "hot-1" in cache and "hot-2" in cache
        assert "cold" not in cache
        assert cache.stats().evictions == 10

    def test_admission_rejection_drops_the_restamped_entry(self):
        admitted: list[str] = []

        def admission(key: str, value: str) -> bool:
            admitted.append(value)
            return value != "bad"

        cache: PlanCache = PlanCache(capacity=4, admission=admission)
        cache.put("a", 1, "good")
        cache.put("b", 1, "good")
        dropped = cache.invalidate_stale(
            2, lambda key, _value: "bad" if key == "a" else "good'"
        )
        assert dropped == 1
        assert "a" not in cache and cache.get("b", 2) == "good'"
        assert admitted == ["good", "good", "bad", "good'"]
        stats = cache.stats()
        assert stats.rejections == 1 and stats.invalidations == 1

    def test_a_concurrently_replaced_slot_is_left_alone(self):
        cache: PlanCache = PlanCache(capacity=4)
        cache.put("a", 1, "old")

        def recertify(key: str, value: str) -> str:
            # A request under the new version planned and cached the key
            # while this entry was being re-certified.
            cache.put(key, 2, "fresh")
            return value + "'"

        assert cache.invalidate_stale(2, recertify) == 0
        assert cache.get("a", 2) == "fresh"

    def test_discard_counts_an_invalidation(self):
        cache: PlanCache = PlanCache(capacity=2)
        cache.put("a", 1, "plan-a")
        assert cache.discard("a") and not cache.discard("a")
        assert cache.stats().invalidations == 1


class TestRefitRecertifies:
    def test_identical_history_restamps_every_entry(self, schema):
        service = new_service(schema)
        before = {text: service.plan_for(text) for text in QUERIES}
        version = service.refit(make_history(schema))
        assert counter(service, "plans_recertified") == len(QUERIES)
        assert counter(service, "plans_replanned") == 0
        assert len(service.cache) == len(QUERIES)
        for text, old in before.items():
            new = service.plan_for(text)
            assert new.statistics_version == version == old.statistics_version + 1
            assert new.plan == old.plan
            assert new.expected_where_cost == old.expected_where_cost
        assert counter(service, "plans_built") == len(QUERIES)
        assert service.cache.stats().invalidations == 0

    def test_served_plans_carry_their_current_certified_cost(self, schema):
        service = new_service(schema)
        for text in QUERIES:
            service.plan_for(text)
        service.refit(make_history(schema, seed=3)[:1500])
        assert counter(service, "plans_recertified") == len(QUERIES)
        distribution = service.engine.distribution
        for text in QUERIES:
            prepared = service.plan_for(text)
            assert prepared.statistics_version == service.engine.statistics_version
            certificate = certify_plan(prepared.plan, distribution)
            assert prepared.expected_where_cost == certificate.root_bound
            report = verify_plan(
                prepared.plan,
                schema,
                query=prepared.parsed.query,
                distribution=distribution,
                claimed_cost=prepared.expected_where_cost,
            )
            assert report.ok, report.format()
        # Every plan served was a re-stamped one, admitted first time.
        assert counter(service, "plans_built") == len(QUERIES)
        assert counter(service, "plans_rejected") == 0

    def test_restamped_plans_serve_the_same_results(self, schema):
        service = new_service(schema)
        live = make_history(schema, seed=21)[:500]
        before = {text: service.execute(text, live) for text in QUERIES}
        service.refit(make_history(schema, seed=5))
        assert counter(service, "plans_recertified") == len(QUERIES)
        for text in QUERIES:
            result = service.execute(text, live)
            assert result == service.engine.execute_prepared(
                service.plan_for(text), live
            )
            assert result == before[text]

    def test_admission_rejection_at_restamp_drops_the_entry(
        self, schema, monkeypatch
    ):
        service = new_service(schema)
        for text in QUERIES:
            service.plan_for(text)
        # A re-stamp is re-admitted by the cost rules over its
        # re-certification walk; make them see an overclaimed cost.
        genuine = service_module.check_cost

        def overclaiming(records, claimed_cost=None, **kwargs):
            return genuine(records, claimed_cost=claimed_cost + 1000.0, **kwargs)

        monkeypatch.setattr(service_module, "check_cost", overclaiming)
        service.refit(make_history(schema))
        monkeypatch.undo()
        assert counter(service, "plans_recertified") == len(QUERIES)
        assert counter(service, "plans_rejected") == len(QUERIES)
        stats = service.cache.stats()
        assert stats.rejections == len(QUERIES) and stats.size == 0
        service.plan_for(QUERIES[0])
        assert counter(service, "plans_built") == len(QUERIES) + 1

    def test_shifted_history_still_replans(self, schema):
        tracer = Tracer()
        service = new_service(schema, tracer)
        text = QUERIES[0]
        old = service.plan_for(text)
        service.refit(make_history(schema, seed=8, shifted=True))
        (event,) = [e for e in tracer.events if e.phase == "recertify"]
        assert event.fingerprint == str(service.fingerprint(text))
        assert event.fields["cost_before"] == old.expected_where_cost
        assert event.fields["cost_after"] - event.fields["cost_before"] > 40.0
        assert event.fields["radius"] == pytest.approx(6.07, abs=0.01)
        assert event.fields["kept"] is False
        assert counter(service, "plans_replanned") == 1
        assert len(service.cache) == 0
        assert service.plan_for(text).plan != old.plan

    def test_one_trace_event_per_decision(self, schema):
        tracer = Tracer()
        service = new_service(schema, tracer)
        for text in QUERIES:
            service.plan_for(text)
        service.refit(make_history(schema, seed=8, shifted=True))
        events = [e for e in tracer.events if e.phase == "recertify"]
        assert len(events) == len(QUERIES)
        assert {e.fingerprint for e in events} == {
            str(service.fingerprint(text)) for text in QUERIES
        }
        kept = sum(e.fields["kept"] for e in events)
        assert kept == counter(service, "plans_recertified")
        assert len(events) - kept == counter(service, "plans_replanned")
        for event in events:
            moved = abs(event.fields["cost_after"] - event.fields["cost_before"])
            assert event.fields["kept"] == (moved <= event.fields["radius"])


class TestOtherBumpsStillEmptyTheCache:
    def test_explicit_bump_and_engine_refit_do_not_recertify(self, schema):
        service = new_service(schema)
        for text in QUERIES:
            service.plan_for(text)
        service.engine.bump_statistics_version()
        assert len(service.cache) == 0
        for text in QUERIES:
            service.plan_for(text)
        service.engine.refit(make_history(schema))
        assert len(service.cache) == 0
        assert counter(service, "plans_recertified") == 0
        assert counter(service, "plans_replanned") == 0

    def test_a_failed_refit_leaves_bumps_unrecertified(self, schema):
        service = new_service(schema)
        service.plan_for(QUERIES[0])
        with pytest.raises(DistributionError):
            service.refit(np.zeros((0, 3), dtype=np.int64))
        service.engine.bump_statistics_version()
        assert len(service.cache) == 0
        assert counter(service, "plans_recertified") == 0


class TestCheckDriftRefit:
    DRIFTING = "SELECT * WHERE p >= 2 AND q >= 2"
    STEADY = "SELECT * WHERE mode >= 2"

    def test_drifted_plan_is_replanned_and_the_steady_one_restamped(self):
        schema = Schema(
            [
                Attribute("mode", 2, 1.0),
                Attribute("p", 2, 100.0),
                Attribute("q", 2, 100.0),
            ]
        )
        engine = AcquisitionalEngine(
            schema, regime_data(3000, flipped=False, seed=1), smoothing=0.5
        )
        tracer = Tracer()
        service = AcquisitionalService(engine, profiling=True, tracer=tracer)
        live = regime_data(1200, flipped=True, seed=7)
        drifting = service.plan_for(self.DRIFTING)
        steady = service.plan_for(self.STEADY)
        service.execute(self.DRIFTING, live)
        service.execute(self.STEADY, live)
        # The refit history is the planning regime again: without the
        # drift evidence, the drifting plan would re-certify too.
        reports = service.check_drift(
            refit_history=regime_data(3000, flipped=False, seed=2)
        )
        assert reports[str(service.fingerprint(self.DRIFTING))].drifted
        assert not reports[str(service.fingerprint(self.STEADY))].drifted
        assert counter(service, "plans_recertified") == 1
        assert counter(service, "plans_replanned") == 0
        decisions = [e for e in tracer.events if e.phase == "recertify"]
        assert [e.fingerprint for e in decisions] == [
            str(service.fingerprint(self.STEADY))
        ]
        assert service.fingerprint(self.DRIFTING) not in service.cache
        restamped = service.plan_for(self.STEADY)
        assert restamped.statistics_version == engine.statistics_version
        assert restamped.plan == steady.plan
        assert counter(service, "plans_built") == 2
        replanned = service.plan_for(self.DRIFTING)
        assert replanned is not drifting
        assert replanned.statistics_version == engine.statistics_version
        assert counter(service, "plans_built") == 3


@st.composite
def histories(draw) -> tuple[int, bool, int]:
    return (
        draw(st.integers(0, 50)),
        draw(st.booleans()),
        draw(st.sampled_from([400, 1500, 4000])),
    )


class TestServedVersionInvariant:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("refit"), histories()),
                st.tuples(st.just("bump"), st.none()),
                st.tuples(st.just("serve"), st.integers(0, len(QUERIES) - 1)),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_no_plan_is_served_under_an_uncertified_version(self, schema, steps):
        tracer = Tracer(capacity=100_000)
        service = new_service(schema, tracer)
        engine = service.engine
        planned: list = []
        genuine = engine.prepare_parsed

        def spy(parsed, text=""):
            prepared = genuine(parsed, text=text)
            planned.append(prepared)
            return prepared

        engine.prepare_parsed = spy  # type: ignore[method-assign]
        certified: dict[tuple[str, int], float] = {}
        seen = 0
        for text in QUERIES:
            service.plan_for(text)
        for kind, argument in steps:
            if kind == "refit":
                seed, shifted, rows = argument
                history = make_history(schema, seed=seed, shifted=shifted)
                version = service.refit(history[:rows])
                for event in tracer.events[seen:]:
                    if event.phase == "recertify" and event.fields["kept"]:
                        certified[(event.fingerprint, version)] = event.fields[
                            "cost_after"
                        ]
            elif kind == "bump":
                engine.bump_statistics_version()
            else:
                text = QUERIES[argument]
                version = engine.statistics_version
                prepared = service.plan_for(text)
                assert prepared.statistics_version == version
                fresh = any(
                    prepared is plan and plan.statistics_version == version
                    for plan in planned
                )
                key = (str(service.fingerprint(text)), version)
                assert fresh or certified.get(key) == prepared.expected_where_cost
                cost = certify_plan(prepared.plan, engine.distribution).root_bound
                assert prepared.expected_where_cost == pytest.approx(cost, rel=1e-9)
                report = verify_plan(
                    prepared.plan,
                    schema,
                    query=prepared.parsed.query,
                    distribution=engine.distribution,
                    claimed_cost=prepared.expected_where_cost,
                )
                assert report.ok, report.format()
            seen = len(tracer.events)
