"""Seeded violation corpus: ``repro-lint``'s own negative controls.

A linter that silently passes broken code is worse than none — the same
argument that gave the verifier its mutation corpus gives the lint
framework this one.  Each :class:`LintCase` is a small module seeding
exactly one violation class, named with the documented code that must
fire on it; the clean cases are the positive controls that must stay
silent (seeded RNGs, locked writes, executor offloads, approved ledger
modules, working suppressions).

The one corpus runner (:func:`repro.corpus.run_corpus`, family
``source``) self-tests these cases before ``lint-code --suite`` scans
the repo: a dead rule fails the suite even when the repo itself happens
to be clean.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass

__all__ = ["LintCase", "clean_cases", "violation_cases"]


@dataclass(frozen=True)
class LintCase:
    """One seeded module and the code that must (or must not) fire."""

    name: str
    description: str
    module: str
    source: str
    expected_code: str = ""  # empty for clean cases


def _case(
    name: str,
    description: str,
    module: str,
    source: str,
    expected_code: str = "",
) -> LintCase:
    return LintCase(
        name=name,
        description=description,
        module=module,
        source=textwrap.dedent(source).strip() + "\n",
        expected_code=expected_code,
    )


def violation_cases() -> list[LintCase]:
    """One seeded module per violation class; every rule must fire."""
    return [
        _case(
            "det001-global-random",
            "module-level random.shuffle draws from the process RNG",
            "repro.cluster.example",
            """
            import random

            def scramble(items):
                random.shuffle(items)
                return items
            """,
            "DET001",
        ),
        _case(
            "det001-unseeded-default-rng",
            "default_rng() without a seed draws OS entropy",
            "repro.planning.example",
            """
            import numpy as np

            def jitter(n):
                rng = np.random.default_rng()
                return rng.normal(size=n)
            """,
            "DET001",
        ),
        _case(
            "det002-wallclock-in-planner",
            "a planner stamps plans with time.time()",
            "repro.planning.example",
            """
            import time

            def stamp(plan):
                return {"plan": plan, "built_at": time.time()}
            """,
            "DET002",
        ),
        _case(
            "det002-datetime-now-in-executor",
            "datetime.now() leaks the wall clock into execution",
            "repro.execution.example",
            """
            from datetime import datetime

            def annotate(result):
                result["when"] = datetime.now().isoformat()
                return result
            """,
            "DET002",
        ),
        _case(
            "det004-module-level-generator",
            "an execution module binds a seeded generator at import",
            "repro.execution.example",
            """
            import numpy as np

            _RNG = np.random.default_rng(42)

            def shuffle_rows(rows):
                order = _RNG.permutation(len(rows))
                return [rows[i] for i in order]
            """,
            "DET004",
        ),
        _case(
            "det004-module-level-random-instance",
            "random.Random at module scope is shared RNG state even seeded",
            "repro.core.example",
            """
            import random

            _JITTER = random.Random(7)

            def jitter():
                return _JITTER.random()
            """,
            "DET004",
        ),
        _case(
            "det003-set-iteration",
            "iterating a set literal leaks hash order into output",
            "repro.core.example",
            """
            def names(plan):
                out = []
                for attr in {step.attr for step in plan.steps}:
                    out.append(attr)
                return out
            """,
            "DET003",
        ),
        _case(
            "rc001-unlocked-write",
            "a lock-declaring class mutates shared state lock-free",
            "repro.service.example",
            """
            import threading

            class SharedCounter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._value = 0

                def increment(self):
                    self._value += 1
            """,
            "RC001",
        ),
        _case(
            "rc001-unlocked-container-mutation",
            "an unlocked .append to a lock-guarded deque",
            "repro.service.example",
            """
            import threading
            from collections import deque

            class Recent:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._events = deque(maxlen=16)

                def record(self, event):
                    self._events.append(event)
            """,
            "RC001",
        ),
        _case(
            "rc002-lock-order-cycle",
            "two lock-guarded classes call each other while locked",
            "repro.cluster.example",
            """
            import threading

            class Router:
                def __init__(self, registry):
                    self._lock = threading.Lock()
                    self._registry = Registry(self)

                def route(self, key):
                    with self._lock:
                        return self._registry.lookup(key)

            class Registry:
                def __init__(self, router):
                    self._lock = threading.Lock()
                    self._router = Router(self)

                def lookup(self, key):
                    with self._lock:
                        return self._router.route(key)
            """,
            "RC002",
        ),
        _case(
            "rc003-nested-plain-lock",
            "nested `with self._lock` on a non-reentrant Lock",
            "repro.service.example",
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._names = {}

                def rename(self, old, new):
                    with self._lock:
                        with self._lock:
                            self._names[new] = self._names.pop(old)
            """,
            "RC003",
        ),
        _case(
            "rc003-sibling-reacquire",
            "a locked region calls a sibling method that locks again",
            "repro.service.example",
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._names = {}

                def size(self):
                    with self._lock:
                        return len(self._names)

                def audit(self):
                    with self._lock:
                        return self.size()
            """,
            "RC003",
        ),
        _case(
            "asy001-sleep-on-loop",
            "time.sleep inside an async def stalls every request",
            "repro.cluster.example",
            """
            import time

            async def backoff(attempt):
                time.sleep(0.1 * attempt)
                return attempt + 1
            """,
            "ASY001",
        ),
        _case(
            "asy001-blocking-queue-get",
            "a synchronous queue get(timeout=) on the event loop",
            "repro.cluster.example",
            """
            async def drain(reply_queue):
                replies = []
                while True:
                    replies.append(reply_queue.get(timeout=0.2))
            """,
            "ASY001",
        ),
        _case(
            "asy002-sync-open",
            "synchronous file I/O inside an async def",
            "repro.cluster.example",
            """
            import json

            async def load_config(path):
                with open(path, encoding="utf-8") as handle:
                    return json.load(handle)
            """,
            "ASY002",
        ),
        _case(
            "asy003-get-event-loop",
            "deprecated asyncio.get_event_loop in library code",
            "repro.cluster.example",
            """
            import asyncio

            def schedule(callback):
                loop = asyncio.get_event_loop()
                loop.call_soon(callback)
            """,
            "ASY003",
        ),
        _case(
            "led001-raw-charge",
            "the serving layer computes a charge with raw arithmetic",
            "repro.service.example",
            """
            class Biller:
                def __init__(self):
                    self.total_cost = 0.0

                def bill(self, unit_cost, rows):
                    self.total_cost += unit_cost * rows
            """,
            "LED001",
        ),
        _case(
            "led002-adhoc-derivation",
            "an ad-hoc expression re-derives an Eq. 3 quantity",
            "repro.cli.example",
            """
            def audit(outcome):
                gap = outcome.total_cost - outcome.base_cost
                return gap < 1e-6
            """,
            "LED002",
        ),
        _case(
            "lint001-unknown-code",
            "a suppression naming a code that does not exist",
            "repro.service.example",
            """
            def helper():  # repro-lint: disable=NOPE999
                return 1
            """,
            "LINT001",
        ),
    ]


def clean_cases() -> list[LintCase]:
    """Positive controls: idiomatic code every rule must stay silent on."""
    return [
        _case(
            "clean-seeded-rng",
            "seeded generators are the blessed randomness",
            "repro.planning.example",
            """
            import numpy as np

            def jitter(n, seed):
                rng = np.random.default_rng(seed)
                return rng.normal(size=n)
            """,
        ),
        _case(
            "clean-function-scoped-rng",
            "execution code may build seeded generators inside "
            "functions — only import-time state is banned",
            "repro.execution.example",
            """
            import numpy as np

            def sample_rows(n, seed):
                rng = np.random.default_rng(seed)
                return rng.integers(1, 10, n)
            """,
        ),
        _case(
            "clean-monotonic-durations",
            "perf_counter durations are not wall-clock reads",
            "repro.execution.example",
            """
            import time

            def timed(fn):
                start = time.perf_counter()
                value = fn()
                return value, time.perf_counter() - start
            """,
        ),
        _case(
            "clean-sorted-set",
            "sorted() launders set order into determinism",
            "repro.core.example",
            """
            def names(plan):
                return [a for a in sorted({s.attr for s in plan.steps})]
            """,
        ),
        _case(
            "clean-locked-writes",
            "the PlanCache pattern: every write under the lock, the "
            "_evict helper called only while holding it",
            "repro.service.example",
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.RLock()
                    self._entries = {}
                    self._evictions = 0

                def put(self, key, value):
                    with self._lock:
                        while len(self._entries) > 4:
                            self._evict()
                        self._entries[key] = value

                def _evict(self):
                    self._entries.pop(next(iter(self._entries)))
                    self._evictions += 1

                def get(self, key):
                    with self._lock:
                        return self._entries.get(key)
            """,
        ),
        _case(
            "clean-async-offload",
            "run_in_executor and asyncio.sleep are the blessed waits",
            "repro.cluster.example",
            """
            import asyncio

            async def drain(loop, reply_queue):
                await asyncio.sleep(0)
                return await loop.run_in_executor(None, reply_queue.qsize)
            """,
        ),
        _case(
            "clean-ledger-module",
            "approved ledger modules may do raw Eq. 3 arithmetic",
            "repro.core.ledger.example",
            """
            class ShedLedger:
                def __init__(self):
                    self.shed_cost_avoided = 0.0

                def charge_shed(self, expected_cost, rows):
                    self.shed_cost_avoided += expected_cost * rows
            """,
        ),
        _case(
            "clean-store-received-cost",
            "storing a received cost is not a new charge",
            "repro.cluster.example",
            """
            class FrontDoor:
                def __init__(self):
                    self._known_cost = {}

                def observe(self, digest, reply):
                    self._known_cost[digest] = reply.expected_where_cost
            """,
        ),
        _case(
            "clean-suppressed-finding",
            "a per-line suppression silences its named code",
            "repro.service.example",
            """
            class Biller:
                def __init__(self):
                    self.total_cost = 0.0

                def bill(self, unit_cost, rows):
                    self.total_cost += unit_cost * rows  # repro-lint: disable=LED001  audited by tests
            """,
        ),
        _case(
            "clean-wallclock-outside-deterministic-paths",
            "the CLI may read the wall clock for banners",
            "repro.cli.example",
            """
            import time

            def banner():
                return f"started at {time.time():.0f}"
            """,
        ),
    ]
