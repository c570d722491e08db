"""Bandit state persistence across statistics-version bumps.

The serving layer invalidates plan caches and profiles whenever the
statistics version moves — that machinery exists
precisely to throw stale *derived* artifacts away.  Learned posteriors
are different: they are evidence, and evidence survives a version bump
(discounted, via :meth:`~repro.learn.bandit.OrderBanditEnsemble.adopt`).
:class:`BanditStateStore` is the keyed, thread-safe, LRU-bounded home
for that evidence: entries are keyed by ``(key, statistics_version)``
where ``key`` is the service's query fingerprint, so a warm start always
knows which statistics generation the posteriors were trained under.

The store holds only frozen :class:`~repro.learn.bandit.BanditState`
snapshots — no live ensembles — so sharing it across threads or reusing
a snapshot in two runs can never couple their mutation, which keeps the
deterministic-replay guarantees intact.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.exceptions import LearningError
from repro.learn.bandit import BanditState

__all__ = ["BanditStateStore"]


class BanditStateStore:
    """LRU map ``(key, statistics_version) -> BanditState``."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise LearningError(f"store capacity must be >= 1: {capacity}")
        self._capacity = capacity
        self._lock = threading.RLock()
        self._entries: OrderedDict[tuple[str, int], BanditState] = OrderedDict()

    def put(self, key: str, version: int, state: BanditState) -> None:
        with self._lock:
            composite = (key, version)
            if composite in self._entries:
                self._entries.pop(composite)
            self._entries[composite] = state
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def get(self, key: str, version: int) -> BanditState | None:
        with self._lock:
            state = self._entries.get((key, version))
            if state is not None:
                self._entries.move_to_end((key, version))
            return state

    def latest(self, key: str) -> tuple[int, BanditState] | None:
        """The newest-version state stored for ``key``, if any."""
        with self._lock:
            best: tuple[int, BanditState] | None = None
            for (entry_key, version), state in self._entries.items():
                if entry_key != key:
                    continue
                if best is None or version > best[0]:
                    best = (version, state)
            return best

    def versions(self, key: str) -> tuple[int, ...]:
        with self._lock:
            return tuple(
                sorted(
                    version
                    for entry_key, version in self._entries
                    if entry_key == key
                )
            )

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
