"""The shard worker process: a queue-draining loop around ShardServer.

Each worker owns one :class:`~repro.cluster.shard.ShardServer` built
from a picklable :class:`~repro.cluster.messages.ShardConfig`.  The loop
blocks on its request queue, then greedily drains whatever else is
already queued (up to ``config.batch_window``) so a burst of requests
is served by one ``serve`` call — same-shape plain requests in one
stacked, vectorized pass — instead of N round-trips.

Everything else is :meth:`~repro.cluster.shard.ShardServer.handle`, the
loop the in-process backend drains through too: control messages split
the execute batches around them, a crashed batch is answered with
per-request error replies so the front door's futures always resolve,
and a traced request's span records ride back on its reply, pickled
here and written out by the front door.  ``shutdown`` acknowledges and
exits the process.

``worker_main`` is a module-level function (not a closure) so it works
under both the ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import queue as queue_module
from typing import TYPE_CHECKING

from repro.cluster.messages import ControlReply, ShardConfig
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
    while True:
        first = request_queue.get()
        batch = _drain(request_queue, first, config.batch_window)
        for reply in server.handle(batch):
            reply_queue.put(reply)
            if isinstance(reply, ControlReply) and reply.kind == "shutdown":
                return
