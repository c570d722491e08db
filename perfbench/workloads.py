"""The four benchmark workloads.

Each workload takes the run's seed, generates its inputs from it, and
hands the program only those inputs (statement texts, reading windows,
streams, refit histories).  The shape pools and the sensor traces are
fixed per workload, so one seed changes which requests arrive and in
what order, not what the workload is.  Answers are checked against
:mod:`oracle` outside the timed region.

Every workload runs in this one process.  A workload exposes
``setup(traced)`` (timed as ``setup_s``),
``teardown(state)`` and ``run(state, seconds, limit, recorder)``, which
returns a :class:`Tally`.  ``limit`` fixes the request count instead of
the duration (the traced pass replays the untraced pass's requests).

A machine-speed probe (:func:`measure.probe`) is taken between chunks of
requests, so every timing is kept both as measured and at the reference
machine speed (scaled by ``REFERENCE_PROBE_S`` over the probes around
its chunk).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from measure import REFERENCE_PROBE_S, probe
from oracle import Shape, make_shape, result_matches, stream_verdicts_match
from spans import SpanRecorder

#: A run holds at least this many requests, so p99 has ten samples beyond.
MIN_REQUESTS = 1000
#: A closed loop still short of MIN_REQUESTS after ``seconds`` keeps going,
#: up to this multiple of ``seconds``.
MAX_EXTENSION = 3.0

#: ``serve`` returns this for an operation that is a write, not a request.
WRITE = object()


@dataclass
class Tally:
    """What one timed pass did.

    Per request: ``latencies`` as measured (seconds), ``scaled`` the same
    at the reference machine speed, and ``tuples`` scanned (0 when the
    request failed).  ``busy_s`` and ``scaled_busy_s`` are timed wall
    time only; ``probes`` holds each chunk's machine probe.
    """

    latencies: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    tuples: list[int] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    scaled_busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    where_cost: float = 0.0
    projection_cost: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)
    #: Traced ``shard_closedloop`` only: ``latency_decomposition`` of the
    #: cluster's own spans.
    decomposition: dict[str, Any] | None = None

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value

    def scanned(self, outcome_tuples: int, where: float, projection: float) -> None:
        self.tuples[-1] = outcome_tuples
        self.where_cost += where
        self.projection_cost += projection


def closed_loop(
    seconds: float,
    limit: int | None,
    chunk: int,
    batch: Callable[[int, int], list[Any]],
    serve: Callable[[Any], Any],
    check: Callable[[Any, Any, Tally], None],
    recorder: SpanRecorder | None,
) -> Tally:
    """One client: serve request chunks back to back, check between chunks.

    ``batch(first, size)`` prepares the next items outside the timed
    region; ``serve(item)`` runs one (returning :data:`WRITE` for a
    write); ``check(item, outcome, tally)`` verifies a request's outcome
    and records its tuples and costs, or counts it failed.  An outcome
    that is a ``ReproError`` is a failed request.
    """
    from repro.exceptions import ReproError

    tally = Tally()
    clock = time.perf_counter
    before = probe()

    def more() -> bool:
        if limit is not None:
            return tally.attempted < limit
        if tally.busy_s < seconds:
            return True
        if tally.busy_s >= MAX_EXTENSION * seconds:
            return False
        return tally.attempted < MIN_REQUESTS

    while more():
        size = chunk if limit is None else min(chunk, limit - tally.attempted)
        items = batch(tally.attempted, size)
        first = len(tally.latencies)
        done: list[tuple[Any, Any]] = []
        began = clock()
        for item in items:
            if recorder is not None:
                recorder.request = first + len(done)
            start = clock()
            try:
                outcome = serve(item)
            except ReproError as error:
                outcome = error
            if outcome is WRITE:
                continue
            tally.latencies.append(clock() - start)
            done.append((item, outcome))
        busy = clock() - began
        after = probe()
        tally.probes.append((before + after) / 2)
        scale = REFERENCE_PROBE_S / tally.probes[-1]
        tally.busy_s += busy
        tally.scaled_busy_s += busy * scale
        tally.scaled.extend(latency * scale for latency in tally.latencies[first:])
        for item, outcome in done:
            tally.attempted += 1
            tally.tuples.append(0)
            if isinstance(outcome, ReproError):
                tally.failed += 1
                continue
            check(item, outcome, tally)
        before = after
    return tally


def _zipf_weights(count: int, skew: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** skew
    return weights / weights.sum()


# ----------------------------------------------------------------------
# Lab-trace workloads: serve_hot and plan_churn
# ----------------------------------------------------------------------

_LAB_DOMAINS = {"hour": 8, "voltage": 4, "light": 6, "temp": 6, "humidity": 6}
_SENSOR_SETS = (
    ("light", "temp", "humidity"),
    ("light", "temp"),
    ("temp", "humidity"),
    ("light", "humidity"),
)
_NARROW_SELECTS = (("light",), ("nodeid", "temp"), ("humidity",), ("hour", "light"))


class _LabWorkload:
    """Shared lab trace, shape pool, and request loop."""

    name = ""
    rows_per_request = 64
    cache_capacity = 64
    chunk = 32

    def __init__(self, seed: int) -> None:
        from repro.data import generate_lab_dataset, time_split

        self.seed = seed
        lab = generate_lab_dataset(
            n_readings=40_000, n_motes=8, seed=0, domain_sizes=_LAB_DOMAINS
        )
        self.schema = lab.schema
        self.names = list(lab.schema.names)
        self.train, self.test = time_split(lab.data, 0.5)

    def lab_pool(self, count: int, pool_seed: int) -> list[Shape]:
        """``count`` distinct lab shapes, fixed by ``pool_seed``.

        As in Section 6.1: one range per chosen sensor, a whole number of
        standard deviations wide, left endpoint uniform.
        """
        rng = np.random.default_rng(pool_seed)
        shapes: dict[str, Shape] = {}
        while len(shapes) < count:
            sensors = _SENSOR_SETS[int(rng.integers(len(_SENSOR_SETS)))]
            width_stds = float(rng.choice([1.0, 1.5, 2.0]))
            predicates = []
            for name in sensors:
                column = self.names.index(name)
                domain = self.schema[column].domain_size
                width = int(round(width_stds * float(self.train[:, column].std())))
                width = min(max(1, width), domain - 1)
                left = int(rng.integers(1, domain - width + 1))
                predicates.append((column, left, left + width, False))
            select = _NARROW_SELECTS[int(rng.integers(len(_NARROW_SELECTS)))]
            shape = make_shape(self.names, predicates, select)
            shapes.setdefault(shape.text, shape)
        return list(shapes.values())

    def new_service(self, history: np.ndarray) -> Any:
        from repro.engine import AcquisitionalEngine
        from repro.service import AcquisitionalService

        engine = AcquisitionalEngine(self.schema, history)
        return AcquisitionalService(
            engine, cache_capacity=self.cache_capacity, cache_policy="lfu"
        )

    def teardown(self, _state: Any) -> None:
        return None

    def requests(self) -> Iterator[tuple[str, Any]]:
        """``("query", (shape, window))`` items, with ``("refit", history)`` writes."""
        raise NotImplementedError

    def run(
        self,
        service: Any,
        seconds: float,
        limit: int | None = None,
        recorder: SpanRecorder | None = None,
    ) -> Tally:
        source = self.requests()

        def batch(_first: int, size: int) -> list[tuple[str, Any]]:
            items: list[tuple[str, Any]] = []
            queries = 0
            while queries < size:
                item = next(source)
                queries += item[0] == "query"
                items.append(item)
            return items

        def serve(item: tuple[str, Any]) -> Any:
            kind, payload = item
            if kind == "refit":
                service.refit(payload)
                return WRITE
            shape, window = payload
            return service.execute(shape.text, window)

        def check(item: tuple[str, Any], result: Any, tally: Tally) -> None:
            shape, window = item[1]
            if not result_matches(result, window, shape):
                tally.failed += 1
                tally.wrong += 1
                return
            tally.scanned(result.tuples_scanned, result.where_cost, result.projection_cost)

        return closed_loop(seconds, limit, self.chunk, batch, serve, check, recorder)


class ServeHot(_LabWorkload):
    """Warm read path: every shape planned in set-up, large windows."""

    name = "serve_hot"
    rows_per_request = 2048
    chunk = 64
    n_shapes = 24
    skew = 1.1

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.pool = self.lab_pool(self.n_shapes, pool_seed=11)

    def setup(self, traced: bool = False) -> Any:
        service = self.new_service(self.train)
        for shape in self.pool:
            service.plan_for(shape.text)
        return service

    def requests(self) -> Iterator[tuple[str, Any]]:
        rng = np.random.default_rng([self.seed, 1])
        weights = _zipf_weights(len(self.pool), self.skew)
        span = self.test.shape[0] - self.rows_per_request
        while True:
            shape = self.pool[int(rng.choice(len(self.pool), p=weights))]
            offset = int(rng.integers(0, span))
            yield "query", (shape, self.test[offset : offset + self.rows_per_request])


class PlanChurn(_LabWorkload):
    """Miss and write path.

    A cold shape arrives every ``cold_every`` requests and a refit (which
    invalidates every plan) every ``refit_every``; the rest are Zipf draws
    over the hot set, which the cache holds.
    """

    name = "plan_churn"
    rows_per_request = 64
    n_hot = 12
    n_cold = 24
    cold_every = 25
    refit_every = 400
    refit_rows = 16_000
    skew = 1.1

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        pool = self.lab_pool(self.n_hot + self.n_cold, pool_seed=23)
        self.hot = pool[: self.n_hot]
        self.cold = pool[self.n_hot :]
        # The hot set plus one slot that the cold shapes share.
        self.cache_capacity = self.n_hot + 1

    def setup(self, traced: bool = False) -> Any:
        service = self.new_service(self.train)
        for shape in self.hot:
            service.plan_for(shape.text)
        return service

    def requests(self) -> Iterator[tuple[str, Any]]:
        rng = np.random.default_rng([self.seed, 2])
        weights = _zipf_weights(len(self.hot), self.skew)
        span = self.test.shape[0] - self.rows_per_request
        history_span = self.train.shape[0] - self.refit_rows
        cold_order: list[int] = []
        position = 0
        while True:
            if position and position % self.refit_every == 0:
                start = int(rng.integers(0, history_span))
                yield "refit", self.train[start : start + self.refit_rows]
            if position % self.cold_every == self.cold_every - 1:
                if not cold_order:
                    cold_order = [int(i) for i in rng.permutation(len(self.cold))]
                shape = self.cold[cold_order.pop()]
            else:
                shape = self.hot[int(rng.choice(len(self.hot), p=weights))]
            offset = int(rng.integers(0, span))
            yield "query", (shape, self.test[offset : offset + self.rows_per_request])
            position += 1


# ----------------------------------------------------------------------
# shard_closedloop: one client through the sharded tier
# ----------------------------------------------------------------------


class ShardClosedLoop:
    """One client through ``ShardedServiceCluster``, 2 shards, in-process.

    Each request crosses the front door (fingerprint, ring route,
    coalescing map, admission), the shard's queue and its service.  The
    shard servers run on the front door's event loop, which this
    workload owns and drives one request at a time, so the whole tier is
    one process like the other workloads.  An open loop at a fixed
    arrival rate, with worker processes or in-process, read p99 values
    up to 2.5x apart between runs on a shared 2-vCPU host: host stalls of
    a few milliseconds queued the requests behind them.
    """

    name = "shard_closedloop"
    shards = 2
    n_shapes = 24
    skew = 1.1
    rows_per_request = 48
    chunk = 32
    #: Requests of one acquisition epoch share a fresh window.
    epoch_requests = 20

    def __init__(self, seed: int) -> None:
        from repro.data import generate_garden_dataset, time_split

        self.seed = seed
        garden = generate_garden_dataset(n_motes=5, n_epochs=4_000, seed=3)
        self.schema = garden.schema
        self.names = list(garden.schema.names)
        self.train, self.test = time_split(garden.data, 0.5)
        self.pool = self._garden_pool(garden, pool_seed=31)

    def _garden_pool(self, garden: Any, pool_seed: int) -> list[Shape]:
        """Garden shapes (Section 6.2): one temp and one humidity range on every mote."""
        rng = np.random.default_rng(pool_seed)
        shapes: dict[str, Shape] = {}
        while len(shapes) < self.n_shapes:
            predicates = []
            for kind in ("temp", "humidity"):
                columns = [self.names.index(n) for n in garden.attribute_names(kind)]
                domain = self.schema[columns[0]].domain_size
                width = int(round(domain / rng.uniform(1.25, 3.25)))
                width = min(max(1, width), domain - 1)
                left = int(rng.integers(1, domain - width + 1))
                predicates += [(c, left, left + width, False) for c in columns]
            shape = make_shape(self.names, predicates, ("*",))
            shapes.setdefault(shape.text, shape)
        return list(shapes.values())

    def setup(self, traced: bool = False) -> tuple[asyncio.AbstractEventLoop, Any]:
        from repro.cluster import ClusterConfig, ShardConfig, ShardedServiceCluster
        from repro.obs.trace import Tracer

        config = ClusterConfig(
            shard_config=ShardConfig(
                schema=self.schema,
                history=self.train,
                planner="corr-seq",
                cache_capacity=64,
                cache_policy="lfu",
            ),
            shards=self.shards,
            backend="inproc",
            tracing=traced,
        )
        tracer = Tracer(name="fd", capacity=1_000_000) if traced else None
        loop = asyncio.new_event_loop()
        cluster = ShardedServiceCluster(config, tracer=tracer)
        loop.run_until_complete(cluster.start())
        window = self.test[: self.rows_per_request]
        replies = loop.run_until_complete(
            cluster.execute_many([(shape.text, window) for shape in self.pool])
        )
        if not all(reply.ok for reply in replies):
            self.teardown((loop, cluster))
            raise RuntimeError("shard warm-up failed")
        return loop, cluster

    def teardown(self, state: tuple[asyncio.AbstractEventLoop, Any]) -> None:
        loop, cluster = state
        loop.run_until_complete(cluster.stop())
        loop.close()

    def requests(self) -> Iterator[tuple[Shape, np.ndarray]]:
        rng = np.random.default_rng([self.seed, 3])
        weights = _zipf_weights(len(self.pool), self.skew)
        span = self.test.shape[0] - self.rows_per_request
        while True:
            offset = int(rng.integers(0, span))
            window = self.test[offset : offset + self.rows_per_request]
            for _ in range(self.epoch_requests):
                yield self.pool[int(rng.choice(len(self.pool), p=weights))], window

    def run(
        self,
        state: tuple[asyncio.AbstractEventLoop, Any],
        seconds: float,
        limit: int | None = None,
        recorder: SpanRecorder | None = None,
    ) -> Tally:
        from repro.obs.waterfall import assemble_traces, latency_decomposition

        loop, cluster = state
        source = self.requests()
        if cluster.tracer is not None:
            cluster.tracer.clear()

        def batch(_first: int, size: int) -> list[tuple[Shape, np.ndarray]]:
            return [next(source) for _ in range(size)]

        def serve(item: tuple[Shape, np.ndarray]) -> Any:
            shape, window = item
            return loop.run_until_complete(cluster.execute(shape.text, window))

        def check(item: tuple[Shape, np.ndarray], reply: Any, tally: Tally) -> None:
            shape, window = item
            result = reply.result if reply.ok else None
            if result is None:
                tally.failed += 1
            elif not result_matches(result, window, shape):
                tally.failed += 1
                tally.wrong += 1
            else:
                tally.scanned(result.tuples_scanned, result.where_cost, result.projection_cost)

        tally = closed_loop(seconds, limit, self.chunk, batch, serve, check, recorder)
        if cluster.tracer is not None:
            records = [event.as_dict() for event in cluster.tracer.events]
            trees = list(assemble_traces(records).values())
            tally.decomposition = latency_decomposition(trees, percentile=99.0)
            # How much of the client-observed latency the cluster's own
            # request spans explain.
            tally.extra["traced_ms"] = sum(tree.total_ms for tree in trees)
            tally.extra["observed_ms"] = 1e3 * sum(tally.latencies)
        return tally


# ----------------------------------------------------------------------
# stream_drift: adaptive and learned executors on an adversarial stream
# ----------------------------------------------------------------------


class StreamDrift:
    """Short adversarial streams under a seeded fault schedule.

    Requests alternate between the adaptive executor (even) and the
    learned executor (odd), both obtained from the service; each request
    is one fresh stream.
    """

    name = "stream_drift"
    segments = 3
    segment_length = 90
    chunk = 16
    text = (
        "SELECT * WHERE mode BETWEEN 1 AND 3 AND p BETWEEN 1 AND 2 "
        "AND q BETWEEN 1 AND 2"
    )

    def __init__(self, seed: int) -> None:
        from repro.faults import AttributeFaults, FaultPolicy, FaultSchedule
        from repro.learn.workloads import adversarial_stream

        self.seed = seed
        warm = adversarial_stream(self.segments, self.segment_length, seed=0)
        self.schema = warm.schema
        self.history = warm.data
        names = list(self.schema.names)
        self.predicates = tuple(
            (names.index(p.attribute), p.low, p.high, False)
            for p in warm.query.predicates
        )
        profile = AttributeFaults(
            drop_rate=0.03, timeout_rate=0.01, outage_rate=0.01, outage_length=6
        )
        self.schedule = FaultSchedule(
            {names.index("p"): profile, names.index("q"): profile}
        )
        self.policy = FaultPolicy(outage_replan_threshold=0.5)

    def _stream(self, index: int) -> np.ndarray:
        from repro.learn.workloads import adversarial_stream

        seed = int(np.random.default_rng([self.seed, 4, index]).integers(2**31))
        return adversarial_stream(self.segments, self.segment_length, seed=seed).data

    def _executor(self, service: Any, index: int, warm: bool = False) -> Any:
        rng = np.random.default_rng([self.seed, 6 if warm else 5, index])
        faults = dict(
            fault_schedule=self.schedule, fault_rng=rng, fault_policy=self.policy
        )
        if index % 2 == 0:
            return service.stream_executor(
                self.text, window=96, replan_interval=128, drift_threshold=1.3, **faults
            )
        # Every stream comes from a new source, so its learner starts cold
        # and explores instead of adopting the last stream's posteriors.
        service.bandit_store.clear()
        return service.learned_stream_executor(
            self.text,
            window=96,
            warmup=48,
            delta=0.2,
            burst_pulls=8,
            posterior_decay=0.95,
            drift_threshold=8.0,
            drift_check_every=32,
            drift_min_tuples=64,
            **faults,
        )

    def setup(self, traced: bool = False) -> Any:
        from repro.engine import AcquisitionalEngine
        from repro.service import AcquisitionalService

        service = AcquisitionalService(AcquisitionalEngine(self.schema, self.history))
        # One stream per executor kind, so first-use costs are paid here.
        for index in (0, 1):
            self._executor(service, index, warm=True).process(self.history)
        return service

    def teardown(self, _state: Any) -> None:
        return None

    def run(
        self,
        service: Any,
        seconds: float,
        limit: int | None = None,
        recorder: SpanRecorder | None = None,
    ) -> Tally:
        def batch(first: int, size: int) -> list[tuple[int, np.ndarray]]:
            return [(first + k, self._stream(first + k)) for k in range(size)]

        def serve(item: tuple[int, np.ndarray]) -> Any:
            index, data = item
            return self._executor(service, index).process(data)

        def check(item: tuple[int, np.ndarray], report: Any, tally: Tally) -> None:
            index, data = item
            learned = index % 2 == 1
            ok = stream_verdicts_match(report, data, self.predicates)
            if not ok or (learned and not report.ledger_conserved()):
                tally.failed += 1
                tally.wrong += 1
                return
            cost = float(report.costs.sum())
            tally.scanned(data.shape[0], cost, 0.0)
            tally.add("retry_cost", report.faults.retry_cost)
            tally.add("abstained", float(np.count_nonzero(report.abstained)))
            if learned:
                tally.add("learned_cost", cost)
                tally.add("explore_cost", report.ledger.exploration_cost)
            else:
                tally.add("adaptive_streams", 1.0)
                tally.add("adaptive_replans", float(len(report.replans)))

        return closed_loop(seconds, limit, self.chunk, batch, serve, check, recorder)


WORKLOADS = {
    cls.name: cls for cls in (ServeHot, PlanChurn, ShardClosedLoop, StreamDrift)
}
