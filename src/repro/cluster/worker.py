"""The shard worker process: a queue-draining loop around ShardServer.

Each worker owns one :class:`~repro.cluster.shard.ShardServer` built
from a picklable :class:`~repro.cluster.messages.ShardConfig`.  The loop
blocks on its request queue, then greedily drains whatever else is
already queued (up to ``config.batch_window``) so a burst of requests
is served by one ``serve`` call — same-shape plain requests in one
stacked, vectorized pass — instead of N round-trips.

Distributed tracing needs no code here: ``config.tracing`` makes the
ShardServer build its own shard-named :class:`~repro.obs.trace.Tracer`,
the incoming :class:`~repro.cluster.messages.TraceContext` rides on each
``ExecuteRequest``, and the shard's spans travel back piggybacked on
each ``ExecuteReply`` — the worker just moves the records.

Control messages are handled in arrival order relative to the execute
batches around them; ``shutdown`` acknowledges and exits the process.
A crashed batch never kills the loop silently: the exception is turned
into per-request error replies so the front door's futures always
resolve.

``worker_main`` is a module-level function (not a closure) so it works
under both the ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import queue as queue_module
from typing import TYPE_CHECKING

from repro.cluster.messages import (
    ControlRequest,
    ExecuteReply,
    ExecuteRequest,
    ShardConfig,
)
from repro.cluster.shard import ShardServer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing import Queue

__all__ = ["worker_main"]


def _drain(
    request_queue: "Queue", first: object, window: int
) -> list[object]:
    """The blocking head plus everything already queued (bounded)."""
    batch = [first]
    while len(batch) < window:
        try:
            batch.append(request_queue.get_nowait())
        except queue_module.Empty:
            break
    return batch


def worker_main(
    shard_id: int,
    config: ShardConfig,
    request_queue: "Queue",
    reply_queue: "Queue",
) -> None:
    """Entry point of one shard worker process."""
    server = ShardServer(shard_id, config)
    alive = True
    while alive:
        first = request_queue.get()
        batch = _drain(request_queue, first, config.batch_window)
        executes: list[ExecuteRequest] = []
        for message in batch:
            if isinstance(message, ExecuteRequest):
                executes.append(message)
                continue
            # Control messages act as batch boundaries: flush pending
            # executes first so sync_version applies between batches the
            # way the front door observed them.
            if executes:
                _serve(server, executes, reply_queue)
                executes = []
            if isinstance(message, ControlRequest):
                reply = server.handle_control(message)
                reply_queue.put(reply)
                if message.kind == "shutdown":
                    alive = False
                    break
        if alive and executes:
            _serve(server, executes, reply_queue)


def _serve(
    server: ShardServer,
    requests: list[ExecuteRequest],
    reply_queue: "Queue",
) -> None:
    try:
        replies = server.handle_batch(requests)
    except Exception as error:  # noqa: BLE001 - must answer every future
        replies = [
            ExecuteReply(
                request_id=request.request_id,
                shard=server.shard_id,
                ok=False,
                error=f"{type(error).__name__}: {error}",
                statistics_version=server.service.engine.statistics_version,
            )
            for request in requests
        ]
    for reply in replies:
        reply_queue.put(reply)
