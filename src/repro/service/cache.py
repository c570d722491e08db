"""The plan cache: bounded, statistics-versioned, LRU or LFU.

Entries are keyed by :class:`~repro.service.fingerprint.QueryFingerprint`
and stamped with the engine's statistics version at insert time.  A
lookup under a newer version finds the entry *stale* — the plan was
trained on statistics that no longer describe the data — and drops it on
the spot (counted as an invalidation, returned as a miss).  Serving
layers additionally call :meth:`invalidate_stale` eagerly when the
version bumps.  A plain bump (an adaptive-stream replan, an outage)
empties the cache of old-generation plans immediately.  A refit passes a
per-entry re-certify callable instead: an entry it re-stamps goes back
through the admission gate under the new version and keeps its LFU
frequency, and every other stale entry is dropped.

Two eviction policies cover the workloads we care about:

- ``"lru"`` — recency: right default for drifting request mixes;
- ``"lfu"`` — frequency (ties broken by recency): right for the heavy
  Zipf skew of production traffic, where a few hot shapes should never
  be pushed out by a scan of one-off queries.

Concurrency: every operation that reads or mutates the entry map — and
*all* of them do, since even :meth:`get` bumps recency/frequency state
and drops stale generations — runs under one reentrant lock, so
eviction, admission, and version-bump invalidation interleave safely
when a cache is shared across threads.  The admission gate is
deliberately invoked *outside* the lock: verification is orders of
magnitude slower than a dict operation, and running it inside the
critical section would serialize every concurrent miss behind it.  Two
threads admitting the same key may therefore both verify, with the
later insert winning — idempotent, since both verified the same plan.
Re-certification follows the same discipline: the callable and the
gate run outside the lock, and the re-stamp lands only if the stale
entry is still in its slot (a concurrent lookup or insert owns it
otherwise).
In the sharded serving tier each shard worker additionally owns its
cache exclusively (single-owner-per-shard), making the lock
uncontended on that path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, TypeVar

from repro.exceptions import ServiceError

__all__ = ["PlanCache", "CacheStats"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_POLICIES = ("lru", "lfu")


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time cache counters."""

    hits: int
    misses: int
    evictions: int
    invalidations: int
    size: int
    capacity: int
    policy: str
    rejections: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "rejections": self.rejections,
            "size": self.size,
            "capacity": self.capacity,
            "policy": self.policy,
        }


class _Entry(Generic[V]):
    __slots__ = ("version", "value", "frequency")

    def __init__(self, version: int, value: V) -> None:
        self.version = version
        self.value = value
        self.frequency = 0


class PlanCache(Generic[K, V]):
    """Bounded mapping of fingerprint -> (statistics version, plan).

    ``admission`` is an optional gate run on every :meth:`put`: a
    callable ``(key, value) -> bool`` that returns ``False`` to refuse
    the entry (counted in :attr:`CacheStats.rejections`).  The serving
    layer wires the static plan verifier here so an inconsistent plan is
    never served from cache.
    """

    def __init__(
        self,
        capacity: int = 256,
        policy: str = "lru",
        admission: Callable[[K, V], bool] | None = None,
    ) -> None:
        if capacity < 1:
            raise ServiceError(f"cache capacity must be >= 1, got {capacity}")
        if policy not in _POLICIES:
            raise ServiceError(
                f"unknown cache policy {policy!r}; choose from {_POLICIES}"
            )
        self._capacity = int(capacity)
        self._policy = policy
        self._admission = admission
        self._entries: OrderedDict[K, _Entry[V]] = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._rejections = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def policy(self) -> str:
        return self._policy

    def get(self, key: K, version: int) -> V | None:
        """The cached value, or None on miss / stale generation."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            if entry.version != version:
                # Trained on old statistics: drop, report a miss.
                del self._entries[key]
                self._invalidations += 1
                self._misses += 1
                return None
            self._hits += 1
            entry.frequency += 1
            self._entries.move_to_end(key)
            return entry.value

    def put(self, key: K, version: int, value: V) -> bool:
        """Insert or replace; evicts per policy once capacity is hit.

        Returns ``False`` (and caches nothing) when the admission gate
        refuses the entry.  The gate runs outside the lock (see the
        module docstring for why that race is benign).
        """
        if not self._admit(key, value):
            return False
        with self._lock:
            existing = self._entries.pop(key, None)
            while len(self._entries) >= self._capacity:
                self._evict()
            entry = _Entry(version, value)
            if existing is not None and existing.version == version:
                entry.frequency = existing.frequency
            self._entries[key] = entry
        return True

    def invalidate_stale(
        self,
        version: int,
        recertify: Callable[[K, V], V | None] | None = None,
    ) -> int:
        """Retire every entry not trained on ``version``; returns the drop count.

        Without ``recertify`` every stale entry is dropped.  With it, each
        stale entry's value is offered to ``recertify(key, value)``: a
        returned value that also passes the admission gate replaces the
        entry under ``version``, keeping its LFU frequency and recency
        slot; ``None`` or a gate rejection drops the entry.
        """
        with self._lock:
            stale = [
                (key, entry)
                for key, entry in self._entries.items()
                if entry.version != version
            ]
            if recertify is None:
                for key, _entry in stale:
                    del self._entries[key]
                self._invalidations += len(stale)
                return len(stale)
        dropped = 0
        for key, entry in stale:
            value = recertify(key, entry.value)
            admitted = value is not None and self._admit(key, value)
            with self._lock:
                if self._entries.get(key) is not entry:
                    continue
                if admitted:
                    entry.version = version
                    entry.value = value
                else:
                    del self._entries[key]
                    self._invalidations += 1
                    dropped += 1
        return dropped

    def discard(self, key: K) -> bool:
        """Drop one entry (counted as an invalidation); ``False`` if absent."""
        with self._lock:
            if self._entries.pop(key, None) is None:
                return False
            self._invalidations += 1
            return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                size=len(self._entries),
                capacity=self._capacity,
                policy=self._policy,
                rejections=self._rejections,
            )

    def _admit(self, key: K, value: V) -> bool:
        """Run the admission gate (outside the lock); count a refusal."""
        if self._admission is None or self._admission(key, value):
            return True
        with self._lock:
            self._rejections += 1
        return False

    def _evict(self) -> None:
        if self._policy == "lru":
            self._entries.popitem(last=False)
        else:
            # LFU: least-frequently-used; OrderedDict iteration order makes
            # the least-recently-touched entry win frequency ties.
            victim = min(
                self._entries, key=lambda key: self._entries[key].frequency
            )
            del self._entries[victim]
        self._evictions += 1
