"""The service's request-path metrics, bound once on first use.

``queries``, ``cache_events{event}``, ``execution`` and
``acquisition_cost_total`` are resolved on first use rather than looked
up per request.  A fresh service still lists no series, each series
appears with the event that first uses it, and after a fixed sequence
(one miss, several hits, one faulted request, one refit, one request
after it) every counter, histogram count and gauge equals the events
served, in the snapshot and in the Prometheus text alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import AcquisitionalEngine
from repro.exceptions import ReproError
from repro.faults import FaultPolicy, FaultSchedule
from repro.faults.policy import NO_RETRY
from repro.obs import parse_prometheus, render_prometheus
from repro.service import AcquisitionalService

from tests.conftest import correlated_dataset

STATEMENT = "SELECT c, a WHERE a <= 2 AND b >= 3"
EMPTY = {"counters": {}, "gauges": {}, "labeled_counters": {}, "histograms": {}}


def cache_events(snapshot: dict) -> dict[str, int]:
    family = snapshot["labeled_counters"].get("cache_events", {"series": []})
    return {s["labels"]["event"]: s["value"] for s in family["series"]}


def test_series_appear_on_first_use_and_count_every_event():
    schema, data = correlated_dataset(n_rows=1500, seed=8)
    history, live = data[:1000], data[1000:1300]
    service = AcquisitionalService(AcquisitionalEngine(schema, history))
    assert service.metrics.snapshot() == EMPTY

    results = [service.execute(STATEMENT, live)]
    snapshot = service.metrics.snapshot()
    assert cache_events(snapshot) == {"miss": 1}  # no hit series yet
    assert snapshot["counters"]["queries"] == 1
    assert snapshot["histograms"]["execution"]["count"] == 1

    for start in range(0, 200, 50):
        results.append(service.execute(STATEMENT, live[start : start + 50]))
    faulted = service.execute_resilient(
        STATEMENT,
        live,
        FaultSchedule.uniform(schema, drop_rate=0.3),
        np.random.default_rng(0),
        policy=FaultPolicy(retry=NO_RETRY),
    )
    results.append(faulted.result)
    service.refit(history)  # the same statistics: the plan is kept
    results.append(service.execute(STATEMENT, live))

    snapshot = service.metrics.snapshot()
    counters = snapshot["counters"]
    assert counters["plans_recertified"] == 1
    assert counters["queries"] == len(results) == 7
    assert cache_events(snapshot) == {"miss": 1, "hit": 6}
    assert snapshot["histograms"]["execution"]["count"] == 7
    assert counters["acquisitions_failed"] == faulted.acquisitions_failed
    ledger = 0.0
    for result in results:
        ledger += result.total_cost
    assert snapshot["gauges"]["acquisition_cost_total"] == ledger

    samples = parse_prometheus(render_prometheus(snapshot))
    assert samples["repro_queries_total"] == 7
    assert samples['repro_cache_events_total{event="hit"}'] == 6
    assert samples['repro_cache_events_total{event="miss"}'] == 1


def test_a_failed_request_binds_no_execution_series():
    schema, data = correlated_dataset(n_rows=600, seed=8)
    service = AcquisitionalService(AcquisitionalEngine(schema, data))
    with pytest.raises(ReproError):
        service.execute("SELECT nope WHERE a <= 2", data[:10])
    snapshot = service.metrics.snapshot()
    assert snapshot["counters"] == {"queries": 1}
    assert snapshot["histograms"] == {}
    assert cache_events(snapshot) == {}
