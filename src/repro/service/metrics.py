"""In-process metrics for the serving layer.

A deliberately small registry — counters, labeled counter families,
gauges, and latency histograms with a dict snapshot — so the service can
answer "what is my hit rate, where does time go" without external
dependencies.  Histograms keep a bounded reservoir of the most recent
observations (latency distributions drift with the workload; old samples
stop being representative) plus running aggregates over the full
lifetime.  :func:`repro.obs.render_prometheus` turns a registry snapshot
into the Prometheus text exposition format.

Every metric (and the registry's create-on-first-use maps) is guarded by
a lock, so collection from request threads and scraping from a
front-door aggregator can interleave without dropping samples.  The
locks are per-object and never held across user code, so contention is
one dict or array operation wide.  *Process* safety is by construction
rather than by locking: each shard worker owns a private registry, and
cross-process aggregation happens on immutable snapshots via
:func:`merge_snapshots`.
"""

from __future__ import annotations

import re
import threading
from typing import Any, Iterable, Mapping

import numpy as np

from repro.exceptions import ServiceError

__all__ = [
    "Counter",
    "Gauge",
    "LabeledCounter",
    "LatencyHistogram",
    "MetricsRegistry",
    "merge_snapshots",
]

_DEFAULT_RESERVOIR = 8_192
_PERCENTILES = (50.0, 90.0, 99.0)
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """A monotonically-increasing event counter (thread-safe)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ServiceError(f"counter increments must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value that can move both ways (sizes, versions)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def increment(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += float(amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class LabeledCounter:
    """A family of counters keyed by a fixed set of label names.

    ``family.labels(event="hit")`` returns (creating on first use) the
    child :class:`Counter` for that label combination — mirroring the
    Prometheus client idiom, so the exposition layer can render one
    sample per combination.  Child creation is serialized so two threads
    racing on a new label set observe the same child.
    """

    __slots__ = ("_label_names", "_children", "_lock")

    def __init__(self, label_names: tuple[str, ...]) -> None:
        if not label_names:
            raise ServiceError("labeled counters need at least one label name")
        for name in label_names:
            if not _LABEL_NAME.match(name):
                raise ServiceError(f"invalid label name {name!r}")
        self._label_names = label_names
        self._children: dict[tuple[str, ...], Counter] = {}
        self._lock = threading.Lock()

    @property
    def label_names(self) -> tuple[str, ...]:
        return self._label_names

    def labels(self, **labels: str) -> Counter:
        if set(labels) != set(self._label_names):
            raise ServiceError(
                f"expected labels {sorted(self._label_names)}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self._label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = Counter()
        return child

    def snapshot(self) -> dict:
        with self._lock:
            children = sorted(self._children.items())
        return {
            "labels": list(self._label_names),
            "series": [
                {
                    "labels": dict(zip(self._label_names, key)),
                    "value": child.value,
                }
                for key, child in children
            ],
        }


class LatencyHistogram:
    """Latency tracker: lifetime aggregates + recent-window percentiles.

    Observations are seconds; snapshots report milliseconds (the natural
    unit at serving granularity).  Two kinds of numbers coexist and must
    not be conflated:

    - ``count``, ``mean_ms``, ``max_ms`` aggregate over the histogram's
      whole lifetime;
    - percentiles come from a sliding reservoir holding only the most
      recent ``reservoir`` observations, and are therefore reported as
      ``p50_ms_window`` / ``p90_ms_window`` / ``p99_ms_window``, with
      ``window`` (current reservoir fill) and ``reservoir`` (capacity)
      alongside so readers can judge how much data backs them.

    ``observe`` updates the reservoir and the lifetime aggregates under
    one lock, so a concurrent :meth:`snapshot` never sees a sample
    counted in one but not the other.
    """

    def __init__(self, reservoir: int = _DEFAULT_RESERVOIR) -> None:
        if reservoir < 1:
            raise ServiceError(f"reservoir must be >= 1, got {reservoir}")
        # A ring buffer: sample ``i`` lives at ``i % reservoir``.
        self._recent = np.empty(reservoir, dtype=np.float64)
        self._count = 0
        self._total = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        value = float(seconds)
        if value < 0.0:
            raise ServiceError(f"latency must be >= 0, got {value}")
        with self._lock:
            self._recent[self._count % self._recent.size] = value
            self._count += 1
            self._total += value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def percentile(self, q: float) -> float:
        """The q-th percentile (seconds) over the recent reservoir."""
        with self._lock:
            window = self._recent[: min(self._count, self._recent.size)].copy()
        return float(np.percentile(window, q)) if window.size else 0.0

    def snapshot(self) -> dict:
        with self._lock:
            window = self._recent[: min(self._count, self._recent.size)].copy()
            count = self._count
            total = self._total
            peak = self._max
        report = {
            "count": count,
            "mean_ms": round((total / count if count else 0.0) * 1e3, 4),
            "max_ms": round(peak * 1e3, 4),
            "window": int(window.size),
            "reservoir": int(self._recent.size),
        }
        for q in _PERCENTILES:
            value = float(np.percentile(window, q)) if window.size else 0.0
            report[f"p{q:g}_ms_window"] = round(value * 1e3, 4)
        return report


class MetricsRegistry:
    """Named counters, gauges, and histograms, created on first use.

    Lookup-or-create is serialized, so two threads asking for the same
    name always share one metric object (a racy double-create would
    silently drop one thread's samples).
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._labeled: dict[str, LabeledCounter] = {}
        self._histograms: dict[str, LatencyHistogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge()
        return gauge

    def labeled_counter(self, name: str, *label_names: str) -> LabeledCounter:
        with self._lock:
            family = self._labeled.get(name)
            if family is None:
                family = self._labeled[name] = LabeledCounter(tuple(label_names))
            elif label_names and family.label_names != tuple(label_names):
                raise ServiceError(
                    f"labeled counter {name!r} registered with labels "
                    f"{family.label_names}, requested {label_names}"
                )
        return family

    def histogram(self, name: str) -> LatencyHistogram:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = LatencyHistogram()
        return histogram

    def snapshot(self) -> dict:
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            labeled = sorted(self._labeled.items())
            histograms = sorted(self._histograms.items())
        return {
            "counters": {name: counter.value for name, counter in counters},
            "gauges": {name: gauge.value for name, gauge in gauges},
            "labeled_counters": {
                name: family.snapshot() for name, family in labeled
            },
            "histograms": {
                name: histogram.snapshot() for name, histogram in histograms
            },
        }


def merge_snapshots(snapshots: Iterable[Mapping[str, Any]]) -> dict:
    """Merge per-shard registry snapshots into one cluster-wide view.

    The merge rules follow each metric family's semantics:

    - counters and labeled counter series sum across shards;
    - gauges sum too (sizes and plan counts add up), *except* names
      ending in ``_version`` where the maximum is kept — versions are
      watermarks, not quantities;
    - histograms sum ``count``/``window``, keep the max of ``max_ms``,
      weight ``mean_ms`` by each shard's lifetime count, and take the
      *maximum* of each ``p*_ms_window`` across shards.  Percentiles of
      disjoint reservoirs cannot be reconstructed from summaries, so the
      merged value is the conservative (worst-shard) bound; per-shard
      exposition keeps the exact numbers.

    Used by the front door to aggregate worker registries without any
    shared-memory coordination: workers ship immutable snapshot dicts,
    so no sample can race or be dropped mid-merge.
    """
    merged: dict[str, Any] = {
        "counters": {},
        "gauges": {},
        "labeled_counters": {},
        "histograms": {},
    }
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            if name.endswith("_version"):
                merged["gauges"][name] = max(
                    merged["gauges"].get(name, value), value
                )
            else:
                merged["gauges"][name] = merged["gauges"].get(name, 0.0) + value
        for name, family in snapshot.get("labeled_counters", {}).items():
            target = merged["labeled_counters"].setdefault(
                name, {"labels": list(family.get("labels", [])), "series": []}
            )
            index = {
                tuple(sorted(entry["labels"].items())): entry
                for entry in target["series"]
            }
            for series in family.get("series", []):
                key = tuple(sorted(series["labels"].items()))
                entry = index.get(key)
                if entry is None:
                    entry = {"labels": dict(series["labels"]), "value": 0}
                    index[key] = entry
                    target["series"].append(entry)
                entry["value"] += series["value"]
        for name, fields in snapshot.get("histograms", {}).items():
            target = merged["histograms"].get(name)
            if target is None:
                merged["histograms"][name] = dict(fields)
                continue
            old_count = target.get("count", 0)
            new_count = fields.get("count", 0)
            total = old_count + new_count
            if total:
                target["mean_ms"] = round(
                    (
                        target.get("mean_ms", 0.0) * old_count
                        + fields.get("mean_ms", 0.0) * new_count
                    )
                    / total,
                    4,
                )
            target["count"] = total
            target["window"] = target.get("window", 0) + fields.get("window", 0)
            target["reservoir"] = max(
                target.get("reservoir", 0), fields.get("reservoir", 0)
            )
            target["max_ms"] = max(
                target.get("max_ms", 0.0), fields.get("max_ms", 0.0)
            )
            for key in fields:
                if key.startswith("p") and key.endswith("_ms_window"):
                    target[key] = max(
                        target.get(key, 0.0), fields.get(key, 0.0)
                    )
    for family in merged["labeled_counters"].values():
        family["series"].sort(
            key=lambda entry: tuple(sorted(entry["labels"].items()))
        )
    return merged
