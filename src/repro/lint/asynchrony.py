"""ASY rules: nothing blocks the event loop.

The front door (:mod:`repro.cluster.frontdoor`) multiplexes every
request over one asyncio loop; a single blocking call inside an ``async
def`` stalls all of them at once — coalescing windows stretch, watchdog
timers fire late, and tail latency explodes by exactly the blocked
duration.  Three rules:

- ``ASY001`` — known-blocking calls in async bodies: ``time.sleep``,
  synchronous subprocess waits, ``Thread``/``Process``/queue joins,
  queue ``get``/``put`` with a timeout, and nested-loop starters
  (``asyncio.run`` / ``run_until_complete``).  Offload them with
  ``await asyncio.sleep`` / ``loop.run_in_executor``;
- ``ASY002`` — synchronous file I/O (``open``) in async bodies: fine
  on a laptop, a stall on loaded NFS; offload or pre-open;
- ``ASY003`` — ``asyncio.get_event_loop()`` anywhere in the library:
  deprecated, thread-dependent, and a determinism hazard — inside a
  coroutine ``get_running_loop()`` is exact; outside one, the loop
  should be handed in.

Nested synchronous ``def``s inside a coroutine are *not* treated as
async bodies: they run when called, frequently via
``run_in_executor`` — exactly the blessed escape hatch.
"""

from __future__ import annotations

import ast

from repro.lint.base import ModuleContext, iter_with_qualname
from repro.verify.diagnostics import Diagnostic

__all__ = ["check_asynchrony"]

_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "os.system",
        "os.wait",
        "os.waitpid",
        "asyncio.run",
    }
)

# Attribute spellings that block regardless of the receiver's type.
_BLOCKING_METHODS = frozenset({"run_until_complete"})


def _blocking_reason(
    context: ModuleContext, call: ast.Call
) -> tuple[str, str] | None:
    """(description, hint) when ``call`` is known-blocking, else None."""
    resolved = context.resolve(call.func)
    if resolved in _BLOCKING_CALLS:
        if resolved == "time.sleep":
            return (
                "time.sleep() blocks the event loop",
                "use `await asyncio.sleep(...)`",
            )
        if resolved == "asyncio.run":
            return (
                "asyncio.run() cannot nest inside a running loop",
                "await the coroutine directly",
            )
        return (
            f"{resolved}() blocks the event loop",
            "offload with `await loop.run_in_executor(None, ...)`",
        )
    if isinstance(call.func, ast.Attribute):
        method = call.func.attr
        if method in _BLOCKING_METHODS:
            return (
                f".{method}() starts a nested blocking loop",
                "await the coroutine directly",
            )
        keywords = {kw.arg for kw in call.keywords}
        if method in ("get", "put") and "timeout" in keywords:
            return (
                f"synchronous queue .{method}(timeout=...) blocks the "
                "event loop",
                "offload with `await loop.run_in_executor(None, ...)` "
                "or use an asyncio.Queue",
            )
        if method == "join" and (not call.args or "timeout" in keywords):
            return (
                "thread/process .join() blocks the event loop",
                "offload with `await loop.run_in_executor(None, ...)`",
            )
    return None


def check_asynchrony(context: ModuleContext) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    config = context.config
    for node, _qualname, in_async in iter_with_qualname(context.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = context.resolve(node.func)
        if (
            config.wants("ASY003")
            and resolved == "asyncio.get_event_loop"
        ):
            findings.append(
                context.finding(
                    "ASY003",
                    node,
                    "asyncio.get_event_loop() is deprecated and "
                    "thread-dependent",
                    hint="use asyncio.get_running_loop() inside "
                    "coroutines, or accept the loop as a parameter",
                )
            )
        if not in_async:
            continue
        if config.wants("ASY001"):
            blocking = _blocking_reason(context, node)
            if blocking is not None:
                message, hint = blocking
                findings.append(
                    context.finding(
                        "ASY001",
                        node,
                        message,
                        hint=hint,
                    )
                )
        if config.wants("ASY002") and resolved == "open":
            findings.append(
                context.finding(
                    "ASY002",
                    node,
                    "synchronous open() inside an async function",
                    hint="offload file I/O with run_in_executor, or do "
                    "it before entering the async path",
                )
            )
    return findings
