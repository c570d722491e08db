"""The Eq. 3 ledger invariants, checked through ``serve``.

Hypothesis generates batches of :class:`~repro.service.Request`s that
mix plain requests, faulted requests (random schedule, degradation
policy and seed), malformed readings, unknown statements and repeated
shapes, with a refit between two batches.  Whatever the mix:

- the ``acquisition_cost_total`` gauge is the sum of the successful
  outcomes' Eq. 3 costs (:meth:`~repro.core.ledger.Ledger.conserved`),
  and error outcomes add nothing to it;
- a faulted outcome's retry cost is a slice of its WHERE cost;
- two fresh services serving the same requests give identical outcomes,
  float for float.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Attribute, Schema
from repro.core.ledger import Ledger
from repro.engine import AcquisitionalEngine
from repro.faults import (
    AttributeFaults,
    DegradationMode,
    FaultPolicy,
    FaultSchedule,
    RetryPolicy,
)
from repro.service import AcquisitionalService
from repro.service.service import FaultContext, Outcome, Request
from tests.test_service_cache import make_history

QUERIES = (
    "SELECT * WHERE temp >= 3 AND light >= 3",
    "SELECT hour WHERE temp >= 2",
    "SELECT * WHERE light <= 2 AND hour >= 2",
    "SELECT temp WHERE temp >= 3 AND light <= 1",
)

SCHEMA = Schema(
    [
        Attribute("hour", 4, 1.0),
        Attribute("temp", 4, 100.0),
        Attribute("light", 4, 100.0),
    ]
)

LIVE = make_history(SCHEMA, seed=97)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

rates = st.sampled_from([0.0, 0.05, 0.1, 0.2])


@st.composite
def fault_specs(draw) -> tuple:
    profiles = {
        index: (draw(rates), draw(rates), draw(rates), draw(rates))
        for index in draw(st.sets(st.sampled_from([1, 2]), min_size=1))
    }
    return (
        profiles,
        draw(st.sampled_from(list(DegradationMode))),
        draw(st.integers(0, 3)),
        draw(st.sampled_from([None, 0.3])),
        draw(st.integers(0, 2**16)),
    )


request_specs = st.tuples(
    st.sampled_from(["plain", "plain", "faulted", "malformed", "unknown"]),
    st.integers(0, len(QUERIES) - 1),
    st.integers(0, len(LIVE) - 64),
    st.integers(1, 48),
    fault_specs(),
)

batches = st.lists(request_specs, min_size=1, max_size=8)


def build(specs: list[tuple]) -> list[Request]:
    """Fresh requests (and fresh fault generators) for ``specs``."""
    requests = []
    for kind, query, start, rows, faults in specs:
        readings = LIVE[start : start + rows]
        if kind == "malformed":
            requests.append(Request(QUERIES[query], readings[:, :2]))
        elif kind == "unknown":
            requests.append(Request("SELECT * WHERE nope >= 1", readings))
        elif kind == "faulted":
            profiles, mode, retries, threshold, seed = faults
            schedule = FaultSchedule(
                {
                    index: AttributeFaults(
                        drop_rate=drop,
                        timeout_rate=timeout,
                        outage_rate=outage,
                        stuck_rate=stuck,
                        outage_length=3,
                    )
                    for index, (drop, timeout, outage, stuck) in profiles.items()
                }
            )
            policy = FaultPolicy(
                retry=RetryPolicy(max_retries=retries),
                degradation=mode,
                outage_replan_threshold=threshold,
            )
            context = FaultContext(schedule, np.random.default_rng(seed), policy)
            requests.append(Request(QUERIES[query], readings, faults=context))
        else:
            requests.append(Request(QUERIES[query], readings))
    return requests


def serve(
    first: list[tuple], refit: tuple[int, bool], second: list[tuple]
) -> tuple[AcquisitionalService, list[Outcome]]:
    service = AcquisitionalService(
        AcquisitionalEngine(SCHEMA, make_history(SCHEMA)),
        cache_capacity=8,
        cache_policy="lfu",
    )
    outcomes = service.serve(build(first))
    seed, shifted = refit
    service.refit(make_history(SCHEMA, seed=seed, shifted=shifted)[:1500])
    outcomes += service.serve(build(second))
    return service, outcomes


def gauge(service: AcquisitionalService) -> float:
    return float(service.stats()["gauges"].get("acquisition_cost_total", 0.0))


def cost(outcome: Outcome) -> float:
    result = outcome.result
    return getattr(result, "result", result).total_cost


def fingerprint(outcome: Outcome) -> tuple:
    """Everything an outcome says, with every float as its hex."""
    if outcome.error is not None:
        return ("error", type(outcome.error).__name__, str(outcome.error))
    result = outcome.result
    plain = getattr(result, "result", result)
    fields = (
        plain.columns,
        plain.rows,
        plain.tuples_scanned,
        plain.where_cost.hex(),
        plain.projection_cost.hex(),
    )
    if plain is result:
        return ("plain", *fields)
    return (
        "faulted",
        *fields,
        result.abstained_rows,
        result.tuples_degraded,
        result.acquisitions_failed,
        result.retries_total,
        result.retry_cost.hex(),
    )


refits = st.tuples(st.integers(0, 20), st.booleans())


class TestServeLedger:
    @SETTINGS
    @given(first=batches, refit=refits, second=batches)
    def test_gauge_is_the_sum_of_served_costs(self, first, refit, second):
        service, outcomes = serve(first, refit, second)
        served = sum(cost(o) for o in outcomes if o.error is None)
        assert Ledger(base_cost=served).conserved(gauge(service))
        before = gauge(service)
        bad = [(kind, *spec[1:]) for spec in first for kind in ("malformed", "unknown")]
        errors = service.serve(build(bad))
        assert all(outcome.error is not None for outcome in errors)
        assert gauge(service) == before

    @SETTINGS
    @given(first=batches, refit=refits, second=batches)
    def test_retry_cost_is_a_slice_of_where_cost(self, first, refit, second):
        _, outcomes = serve(first, refit, second)
        for outcome in outcomes:
            result = outcome.result
            if outcome.error is None and hasattr(result, "retry_cost"):
                assert 0.0 <= result.retry_cost <= result.result.where_cost

    @SETTINGS
    @given(first=batches, refit=refits, second=batches)
    def test_seeded_replay_is_identical(self, first, refit, second):
        one, first_outcomes = serve(first, refit, second)
        two, second_outcomes = serve(first, refit, second)
        assert [fingerprint(o) for o in first_outcomes] == [
            fingerprint(o) for o in second_outcomes
        ]
        assert gauge(one).hex() == gauge(two).hex()
