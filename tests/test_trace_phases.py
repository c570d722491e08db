"""Every phase the program emits is in ``TRACE_PHASES``.

The tuple is the vocabulary a dashboard can rely on, so each emitting
path runs here: ``execute``, ``execute_batch``, ``execute_resilient``
(with an outage), a refit that re-certifies cached plans,
``check_drift``, both stream factories and a traced in-process shard.
"""

from __future__ import annotations

import asyncio

import numpy as np

from tests.test_service_obs import TEXT, regime_data
from repro.cluster import ClusterConfig, ShardConfig, ShardedServiceCluster
from repro.core import Attribute, Schema
from repro.engine import AcquisitionalEngine
from repro.faults import DegradationMode, FaultPolicy, FaultSchedule
from repro.faults.policy import NO_RETRY
from repro.learn import adversarial_stream
from repro.obs import TRACE_PHASES, Tracer
from repro.service import AcquisitionalService

SCHEMA = Schema(
    [
        Attribute("mode", 2, 1.0),
        Attribute("p", 2, 100.0),
        Attribute("q", 2, 100.0),
    ]
)
OTHER = "SELECT p WHERE q >= 2"


def traced_service(
    history: np.ndarray, **options
) -> tuple[AcquisitionalService, Tracer]:
    tracer = Tracer(capacity=100_000)
    engine = AcquisitionalEngine(SCHEMA, history, smoothing=0.5)
    return AcquisitionalService(engine, tracer=tracer, **options), tracer


def service_phases() -> set[str]:
    phases: set[str] = set()
    live = regime_data(1200, flipped=True, seed=11)

    history = regime_data(3000, flipped=False, seed=1)
    service, tracer = traced_service(history, profiling=True)
    service.execute(TEXT, live)
    service.execute_batch([(TEXT, live[:100]), (OTHER, live[100:200])])
    outage = FaultPolicy(
        retry=NO_RETRY,
        degradation=DegradationMode.ABSTAIN,
        outage_replan_threshold=0.2,
    )
    service.execute_resilient(
        TEXT,
        live,
        FaultSchedule.uniform(SCHEMA, drop_rate=0.6),
        np.random.default_rng(0),
        policy=outage,
    )
    service.execute(TEXT, live)
    service.check_drift()
    service.execute(TEXT, live[:300])
    service.refit(regime_data(3000, flipped=False, seed=2))
    adaptive = service.stream_executor(
        TEXT, window=800, replan_interval=500, drift_threshold=None
    )
    adaptive.process(regime_data(1600, flipped=False, seed=12))
    phases.update(tracer.phases())

    stream = adversarial_stream(n_segments=2, segment_length=200, seed=2)
    tracer = Tracer(capacity=100_000)
    learned = AcquisitionalService(
        AcquisitionalEngine(stream.schema, stream.data[:256]), tracer=tracer
    )
    learned.learned_stream_executor(
        "SELECT mode WHERE mode <= 3 AND p <= 2 AND q <= 2",
        window=96,
        warmup=48,
        smoothing=0.5,
        burst_pulls=6,
    ).process(stream.data)
    phases.update(tracer.phases())
    return phases


def shard_phases() -> set[str]:
    history = regime_data(3000, flipped=False, seed=1)
    live = regime_data(40, flipped=False, seed=3)

    async def main() -> set[str]:
        config = ClusterConfig(
            shard_config=ShardConfig(schema=SCHEMA, history=history),
            shards=2,
            backend="inproc",
            tracing=True,
        )
        tracer = Tracer(name="fd")
        async with ShardedServiceCluster(config, tracer=tracer) as cluster:
            await cluster.execute_many([(TEXT, live)] * 3 + [(OTHER, live)])
            await cluster.execute(
                TEXT,
                live,
                fault_schedule={"faults": {"p": {"drop_rate": 0.4}}},
                fault_seed=5,
                degradation="skip",
            )
        return set(tracer.phases())

    return asyncio.run(main())


def test_every_emitted_phase_is_in_trace_phases() -> None:
    emitted = service_phases() | shard_phases()
    assert emitted <= set(TRACE_PHASES), emitted - set(TRACE_PHASES)
    # The paths above really emit: every service and shard phase but the
    # rarer ones (a verifier rejection, shedding and outage re-routing).
    assert {
        "plan",
        "verify",
        "cache-hit",
        "cache-miss",
        "execute",
        "execute-resilient",
        "replan",
        "recertify",
        "learn",
        "request",
        "shard-execute",
    } <= emitted
