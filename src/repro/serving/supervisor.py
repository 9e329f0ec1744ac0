"""Worker-pool supervision: spawn, watch, kill, respawn.

One pool serves every sweep of a
:meth:`~repro.serving.service.SweepService.serve` drain.  A worker is
forked with the spec of the sweep current at spawn time and builds
that sweep's set-up eagerly; later sweeps reach it inside their
:class:`~repro.serving.worker.Shard` messages, pickled (so a spec's
factories must pickle by reference: module-level callables).  Each
worker slot is a :class:`WorkerHandle` owning the live process, its
private task queue and result pipe, and the supervision bookkeeping:

* ``generation`` increments on every respawn, and every message a
  worker sends carries its generation, so a straggler message from a
  killed process can never be mistaken for the replacement's;
* ``results`` is the read end of the generation's own result pipe,
  whose only writer is the worker.  A shared result queue would be
  guarded by one cross-process write lock, and a worker killed while
  holding it would leave every other worker blocked forever; a pipe
  per generation confines a kill to the dead worker's pipe, which is
  read to its end-of-file and closed (``retired``);
* ``assignment`` is the dispatched shard's outstanding index set —
  what must be re-dispatched if the process dies;
* ``dispatched_at`` / ``progress_at`` drive the per-point progress
  deadline, ``heartbeats[worker_id]`` the hang watchdog.

The pool never interprets results — that (and the journal) is the
:class:`~repro.serving.service.SweepService`'s job; the split keeps
process lifecycle management testable on its own.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing.connection import wait

from repro.serving.sweep import SweepSpec
from repro.serving.worker import Shard, worker_main


class WorkerHandle:
    """One worker slot: the live process plus supervision state."""

    def __init__(self, worker_id: int, context, heartbeats,
                 hang_sleep_s: float):
        self.worker_id = worker_id
        self._context = context
        self._heartbeats = heartbeats
        self._hang_sleep_s = hang_sleep_s
        self.generation = 0
        self.process = None
        self.task_queue = None
        #: Read end of the live generation's result pipe.
        self.results = None
        #: Result pipes of killed generations, read until end-of-file.
        self.retired: list = []
        #: Outstanding point indices of the dispatched shard (empty
        #: set means idle).
        self.assignment: set[int] = set()
        self.dispatched_at: float | None = None
        self.progress_at: float | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def spawn(self, spec: SweepSpec) -> None:
        """Start a fresh process for this slot (a new generation),
        building the set-up of ``spec``, the current sweep.

        A respawn always gets a new task queue: a killed worker may
        have died holding its queue's read end mid-message, and a
        stale shard or sentinel left in the old queue must not leak
        into the replacement.  It also gets a new result pipe; the old
        one may still hold the dead worker's last results.
        """
        self.generation += 1
        self.task_queue = self._context.Queue()
        if self.results is not None:
            self.retired.append(self.results)
        self.results, writer = self._context.Pipe(duplex=False)
        self._heartbeats[self.worker_id] = time.monotonic()
        self.process = self._context.Process(
            target=worker_main,
            args=(self.worker_id, self.generation, spec,
                  self.task_queue, writer,
                  self._heartbeats, self._hang_sleep_s),
            daemon=True,
            name=f"sweep-worker-{self.worker_id}.{self.generation}")
        self.process.start()
        # The worker holds the only write end, so its death is the
        # pipe's end-of-file.
        writer.close()
        self.release()

    def close_results(self, reader) -> None:
        """Close a result pipe whose writer is gone."""
        reader.close()
        if reader is self.results:
            self.results = None
        else:
            self.retired.remove(reader)

    def is_alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def kill(self) -> None:
        """SIGKILL the process (used for hangs — a hung worker by
        definition does not respond to anything gentler)."""
        if self.process is not None and self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)

    def request_exit(self) -> None:
        """Send the graceful-drain sentinel."""
        if self.task_queue is not None and self.is_alive():
            self.task_queue.put(None)

    def join(self, timeout: float) -> bool:
        """Join the process; True when it exited within the timeout."""
        if self.process is None:
            return True
        self.process.join(timeout=timeout)
        return not self.process.is_alive()

    # ------------------------------------------------------------------
    # Dispatch / progress bookkeeping
    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        return not self.assignment

    def dispatch(self, shard: Shard) -> None:
        now = time.monotonic()
        self.assignment = set(shard.indices)
        self.dispatched_at = now
        self.progress_at = now
        # A worker blocked on an empty queue does not beat; restart its
        # hang clock at dispatch so a long-idle (healthy) worker is not
        # instantly mistaken for a hung one.
        self._heartbeats[self.worker_id] = now
        self.task_queue.put(shard)

    def mark_progress(self, index: int) -> None:
        now = time.monotonic()
        self.assignment.discard(index)
        self.progress_at = now
        # A result is proof of life: a worker that waited on a full
        # result pipe could not beat meanwhile.
        self._heartbeats[self.worker_id] = now
        if not self.assignment:
            self.release()

    def release(self) -> None:
        """Mark the slot idle.  At a sweep's end a worker may still be
        computing duplicates of completed points; their messages carry
        the old job number and are dropped, and a new shard waits in
        the task queue behind them."""
        self.assignment = set()
        self.dispatched_at = None
        self.progress_at = None

    def heartbeat_age(self) -> float:
        return time.monotonic() - self._heartbeats[self.worker_id]

    def progress_age(self) -> float | None:
        if self.progress_at is None:
            return None
        return time.monotonic() - self.progress_at


class WorkerPool:
    """The fixed-size pool of worker slots for one ``serve()`` drain."""

    def __init__(self, num_workers: int, hang_sleep_s: float = 3600.0):
        self._context = multiprocessing.get_context("fork")
        self.heartbeats = self._context.Array(
            "d", num_workers, lock=False)
        self.handles = [
            WorkerHandle(worker_id, self._context, self.heartbeats,
                         hang_sleep_s)
            for worker_id in range(num_workers)
        ]
        self.started = False

    def start(self, spec: SweepSpec) -> None:
        """Fork every worker, each building the set-up of ``spec``."""
        self.started = True
        for handle in self.handles:
            handle.spawn(spec)

    def receive(self, timeout: float) -> list[dict]:
        """Wait up to ``timeout`` for any result pipe to turn readable,
        then take every complete message from those that did.  A pipe
        at end-of-file — its worker dead, perhaps mid-message — is
        closed."""
        owners = {}
        for handle in self.handles:
            if handle.results is not None:
                owners[handle.results] = handle
            for reader in handle.retired:
                owners[reader] = handle
        messages = []
        for reader in wait(list(owners), timeout):
            try:
                while reader.poll():
                    messages.append(reader.recv())
            except (EOFError, OSError):
                owners[reader].close_results(reader)
        return messages

    def handle_for(self, worker_id: int,
                   generation: int) -> WorkerHandle | None:
        """The live handle a message belongs to, or None when the
        message is a straggler from a dead generation."""
        handle = self.handles[worker_id]
        if handle.generation != generation:
            return None
        return handle

    def stop(self, graceful: bool, timeout: float = 5.0) -> None:
        """Shut the pool down.

        Graceful drain sends every live worker the exit sentinel and
        joins; anything still alive after the timeout — and everything
        when ``graceful`` is False — is SIGKILLed.  Queues and pipes
        are closed so no feeder thread or descriptor outlives the
        pool.
        """
        if graceful:
            for handle in self.handles:
                handle.request_exit()
            deadline = time.monotonic() + timeout
            for handle in self.handles:
                remaining = max(0.0, deadline - time.monotonic())
                handle.join(remaining)
        for handle in self.handles:
            handle.kill()
        for handle in self.handles:
            if handle.task_queue is not None:
                handle.task_queue.close()
                handle.task_queue.cancel_join_thread()
            for reader in [handle.results, *handle.retired]:
                if reader is not None:
                    handle.close_results(reader)
