"""Service integration for the learned streaming path.

The service supplies the glue the bare executor leaves open: metrics
counters and the regret gauge, ``learn`` trace events, statistics-
version bumps on drift refits, and the fingerprint-keyed bandit state
store that deliberately survives those bumps.
"""

import pytest

from repro.engine import AcquisitionalEngine
from repro.exceptions import QueryError, ServiceError
from repro.learn import LearnedStreamExecutor, adversarial_stream
from repro.obs import Tracer
from repro.service import AcquisitionalService

TEXT = "SELECT mode WHERE mode <= 3 AND p <= 2 AND q <= 2"


@pytest.fixture(scope="module")
def workload():
    return adversarial_stream(n_segments=2, segment_length=200, seed=2)


@pytest.fixture
def engine(workload):
    return AcquisitionalEngine(workload.schema, workload.data[:256])


@pytest.fixture
def service(engine):
    return AcquisitionalService(engine)


def run(service, workload, **kwargs):
    defaults = dict(window=96, warmup=48, smoothing=0.5, burst_pulls=6)
    defaults.update(kwargs)
    executor = service.learned_stream_executor(TEXT, **defaults)
    return executor.process(workload.data)


@pytest.mark.parametrize(
    "factory, owned",
    [("stream_executor", "on_replan")]
    + [
        ("learned_stream_executor", owned)
        for owned in ("on_replan", "state_store", "state_key", "version_provider")
    ],
)
def test_each_factory_rejects_every_kwarg_it_owns(service, factory, owned):
    with pytest.raises(ServiceError, match=owned):
        getattr(service, factory)(TEXT, **{owned: None})


class TestWiring:
    def test_returns_a_learned_executor(self, service):
        executor = service.learned_stream_executor(TEXT)
        assert isinstance(executor, LearnedStreamExecutor)

    def test_owned_kwargs_rejected(self, service):
        for owned in (
            "on_replan",
            "state_store",
            "state_key",
            "version_provider",
        ):
            with pytest.raises(ServiceError, match=owned):
                service.learned_stream_executor(TEXT, **{owned: None})

    def test_non_conjunctive_query_rejected(self, service):
        with pytest.raises(QueryError, match="conjunctive"):
            service.learned_stream_executor(
                "SELECT mode WHERE p <= 2 OR q <= 2"
            )


class TestMetricsAndTracing:
    def test_replan_events_land_in_counters_and_gauge(
        self, service, workload
    ):
        report = run(service, workload)
        reasons = [event.reason for event in report.replans]
        swaps = service.metrics.counter("learned_order_swaps").value
        refits = service.metrics.counter("learned_drift_refits").value
        assert swaps == reasons.count("order-swap")
        assert refits == reasons.count("drift-refit") + reasons.count("outage")
        assert swaps + refits > 0  # the adversarial flip forces adaptation
        gauge = service.metrics.gauge("learned_regret_remaining").value
        assert gauge == pytest.approx(report.replans[-1].budget_remaining)

    def test_drift_refit_bumps_statistics_version(
        self, engine, service, workload
    ):
        before = engine.statistics_version
        report = run(service, workload)
        refits = sum(
            event.reason in ("drift-refit", "outage")
            for event in report.replans
        )
        assert engine.statistics_version == before + refits

    def test_learn_events_traced_with_fingerprint(self, engine, workload):
        tracer = Tracer()
        service = AcquisitionalService(engine, tracer=tracer)
        report = run(service, workload)
        learn_events = [
            event for event in tracer.events if event.phase == "learn"
        ]
        assert len(learn_events) == len(report.replans)
        fingerprints = {event.fingerprint for event in learn_events}
        assert len(fingerprints) == 1
        assert {event.fields["reason"] for event in learn_events} == {
            event.reason for event in report.replans
        }


class TestStateAcrossVersions:
    def test_states_keyed_by_statistics_version(
        self, engine, service, workload
    ):
        run(service, workload)
        store = service.bandit_store
        assert len(store) > 0
        # Every stored version is one the engine actually had.
        (key,) = {key for key, _version in store._entries}
        assert all(
            version <= engine.statistics_version
            for version in store.versions(key)
        )

    def test_bandit_store_survives_version_bumps(
        self, engine, service, workload
    ):
        run(service, workload)
        stored_before = len(service.bandit_store)
        engine.bump_statistics_version()
        assert len(service.bandit_store) == stored_before

    def test_second_run_warm_starts_from_stored_state(
        self, engine, service, workload
    ):
        run(service, workload)
        engine.bump_statistics_version()  # simulated cache invalidation
        rerun = run(service, workload)
        warmup = rerun.replans[0]
        assert warmup.reason == "warmup"
        assert warmup.warm

    def test_different_statements_do_not_share_state(self, service, workload):
        run(service, workload)
        other = service.learned_stream_executor(
            "SELECT mode WHERE mode <= 3 AND p <= 2",
            window=96,
            warmup=48,
            smoothing=0.5,
        )
        report = other.process(workload.data)
        assert not report.replans[0].warm
