"""Outside-in span recording for the traced run.

The benchmark times calls into each layer from its own files: a
:class:`SpanRecorder` replaces a layer's public function, at the name the
calling module looks it up under, with a wrapper that opens a span around
the original call.  Nothing under ``src/`` changes, and the untraced run
installs no wrappers at all.

Spans nest through a stack (the serving path is synchronous), so a span's
*self time* is its duration minus the durations of its direct children.
The sum of self times over every span equals the summed duration of the
root spans, which is what ``trace.coverage`` compares with the wall time
of the traced loop.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

#: Span names reported for every workload, in report order.
SPAN_NAMES = (
    "service.execute",
    "service.fingerprint",
    "service.cache",
    "engine.parse",
    "engine.execute",
    "planning.plan",
    "verify.admit",
    "probability.refit",
    "core.walk",
    "execution.adaptive",
    "learn.stream",
    "faults.run",
)

#: Raw spans retained for the trace file; the per-name aggregates always
#: cover every span.
SPANS_KEPT = 50_000


class SpanRecorder:
    """In-memory spans plus per-name call counts and self times.

    ``request`` is stamped on each span: the workload loop sets it per
    request.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._ids = itertools.count()
        # Open spans: [id, name, start, child time, parent id].
        self._stack: list[list[Any]] = []
        self.spans: list[dict[str, Any]] = []
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.request = 0
        self._patches: list[tuple[Any, str, Any]] = []

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([next(self._ids), name, self._clock(), 0.0, parent])

    def exit(self) -> None:
        end = self._clock()
        span_id, name, start, child, parent = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        if len(self.spans) < SPANS_KEPT:
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "request": self.request,
                }
            )

    def total_self_s(self) -> float:
        return float(sum(self.self_s.values()))

    def wrap(
        self,
        function: Callable[..., Any],
        name: str,
        count: Callable[[tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``function`` with a span named ``name`` around every call.

        ``count(args, result)``, when given, updates :attr:`counts` from
        the call's arguments and result inside the span.
        """

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            self.enter(name)
            try:
                result = function(*args, **kwargs)
                if count is not None:
                    count(args, result)
                return result
            finally:
                self.exit()

        return traced

    def patch(
        self,
        target: str,
        attribute: str,
        name: str,
        count: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        """Wrap ``target.attribute``; ``target`` is ``module`` or ``module:Class``."""
        module_name, _, class_name = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
            original = owner.__dict__[attribute]
        else:
            original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(original, name, count))

    def unpatch(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def write(self, path: Path) -> None:
        """Write the retained spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as stream:
            for span in self.spans:
                stream.write(json.dumps(span) + "\n")


def install_layer_spans(recorder: SpanRecorder) -> None:
    """Wrap every in-process layer boundary the benchmark reports on."""

    def rows(args: tuple, _result: Any) -> None:
        recorder.counts["core.rows"] += len(args[1])

    def admitted(_args: tuple, report: Any) -> None:
        recorder.counts["verify.checked"] += 1
        if not report.ok:
            recorder.counts["verify.rejected"] += 1

    def looked_up(_args: tuple, value: Any) -> None:
        recorder.counts["cache.lookups"] += 1
        if value is not None:
            recorder.counts["cache.hits"] += 1

    service = "repro.service.service"
    engine = "repro.engine.engine"
    cache = "repro.service.cache:PlanCache"
    faults = "repro.faults.executor:FaultTolerantExecutor"
    recorder.patch(f"{service}:AcquisitionalService", "execute", "service.execute")
    recorder.patch(f"{service}:AcquisitionalService", "execute_batch", "service.execute")
    recorder.patch(service, "fingerprint_parsed", "service.fingerprint")
    recorder.patch(service, "parse_query", "engine.parse")
    recorder.patch(service, "verify_plan", "verify.admit", admitted)
    recorder.patch(cache, "get", "service.cache", looked_up)
    recorder.patch(cache, "put", "service.cache")
    recorder.patch(f"{engine}:AcquisitionalEngine", "prepare_parsed", "planning.plan")
    recorder.patch(f"{engine}:AcquisitionalEngine", "execute_prepared", "engine.execute")
    recorder.patch(
        f"{engine}:AcquisitionalEngine", "execute_prepared_many", "engine.execute"
    )
    recorder.patch(engine, "EmpiricalDistribution", "probability.refit")
    recorder.patch(engine, "dataset_execution", "core.walk", rows)
    recorder.patch(
        "repro.execution.streaming:AdaptiveStreamExecutor",
        "process",
        "execution.adaptive",
    )
    recorder.patch("repro.learn.stream:LearnedStreamExecutor", "process", "learn.stream")
    recorder.patch(faults, "execute_source", "faults.run")
    recorder.patch(faults, "run", "faults.run")
