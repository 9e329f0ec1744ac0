"""Worker-process main loop of the sweep service.

Each worker owns one :class:`~repro.experiments.runner.ExperimentSetup`
(and hence one :class:`~repro.uarch.machine.QuMAv2`), built by a
sweep's ``setup_factory`` inside the child process and kept across
every sweep of the service's ``serve()`` drain that shares that
factory.  Workers receive :class:`Shard` messages on a private task
queue, execute each point under the per-point purity contract
(:func:`repro.serving.sweep.execute_point`, so a warm set-up changes
no result), heartbeat into a shared array before every point, and
report each result on its own message through the worker's private
result pipe.  Workers hold **no durable state**: the journal lives
with the supervisor, so a worker can die at any instruction without
losing more than the point it was executing.

Chaos directives (``worker_crash`` / ``worker_hang`` /
``result_drop``) ride inside the shard message — decided
deterministically by the supervisor's armed
:class:`~repro.uarch.faults.FaultPlan` at dispatch time — so the
worker code paths that die are exactly the production code paths, just
truncated at the injected instant.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.serving.sweep import (
    SweepSpec,
    execute_point,
    execution_payload,
)

#: Exit code of a chaos-crashed worker (mirrors SIGKILL's 128+9 so
#: supervision treats injected and real kills identically).
CRASH_EXIT_CODE = 137


@dataclass(frozen=True)
class Shard:
    """A batch of point indices of one sweep, dispatched to one worker.

    ``job`` numbers the sweep within the service's ``serve()`` drain;
    every message the worker sends about the shard carries it, so the
    service can drop a straggler from an earlier sweep of the same
    drain.  ``spec`` travels with the shard because one worker serves
    every sweep of the drain.  ``chaos`` maps point indices to an
    injection directive for that point ("worker_crash" | "worker_hang"
    | "result_drop").
    """

    job: int
    spec: SweepSpec
    indices: tuple[int, ...]
    chaos: tuple[tuple[int, str], ...] = ()


def _build_setup(factory):
    """(setup, None) from ``factory()``, or (None, repr(error))."""
    try:
        return factory(), None
    except Exception as error:  # noqa: BLE001 — reported, not raised
        return None, repr(error)


def worker_main(worker_id: int, generation: int, spec: SweepSpec,
                task_queue, results, heartbeats,
                hang_sleep_s: float = 3600.0) -> None:
    """Entry point of one worker process.

    The set-up is built eagerly from ``spec``, the sweep the worker
    was spawned for, and rebuilt only when a shard's
    ``setup_factory`` is a different object (a set-up failure is
    reported on the next shard).  Protocol: ``None`` on the task
    queue is the graceful-drain sentinel — the worker finishes
    nothing further and returns.  Every other message is a
    :class:`Shard`.  ``results`` is the write end of the worker's
    result pipe; every message on it names the shard's job.
    """
    heartbeats[worker_id] = time.monotonic()
    factory = spec.setup_factory
    setup, error = _build_setup(factory)
    while True:
        shard = task_queue.get()
        if shard is None:
            return
        heartbeats[worker_id] = time.monotonic()
        job, spec = shard.job, shard.spec
        if spec.setup_factory is not factory:
            factory = spec.setup_factory
            setup, error = _build_setup(factory)
        if error is not None:
            results.send({"kind": "worker_error", "worker": worker_id,
                          "generation": generation, "job": job,
                          "error": error})
            return
        machine = setup.machine
        if spec.observe != (machine.observability is not None):
            # Worker-side telemetry, only while the sweep asks for it:
            # after each point the fresh spans/metrics are exported
            # onto the result message and the local state cleared, so
            # every "point" message carries exactly its own telemetry.
            from repro.obs import Observability
            machine.observability = Observability() if spec.observe \
                else None
        observability = machine.observability
        chaos = dict(shard.chaos)
        for index in shard.indices:
            heartbeats[worker_id] = time.monotonic()
            directive = chaos.get(index)
            if directive == "worker_hang":
                # Stop heartbeating and go dark: the supervisor's
                # watchdog must SIGKILL us.  (The sleep is bounded
                # only so an unsupervised test cannot wedge forever.)
                time.sleep(hang_sleep_s)
                os._exit(CRASH_EXIT_CODE)
            point = spec.point(index)
            try:
                counts, stats, latency_s = execute_point(
                    setup, spec, point)
            except Exception as error:  # noqa: BLE001
                results.send({
                    "kind": "point_error", "worker": worker_id,
                    "generation": generation, "job": job, "index": index,
                    "error": repr(error),
                    "error_type": type(error).__name__})
                continue
            if directive == "worker_crash":
                # Die after computing but before reporting: the point
                # is lost with the process and must be re-dispatched.
                os._exit(CRASH_EXIT_CODE)
            if directive == "result_drop":
                # The result message is lost in transit; the worker
                # itself stays healthy and keeps serving the shard.
                continue
            payload = execution_payload(point, counts, stats, latency_s)
            if observability is not None:
                payload["obs"] = {
                    "chrome": observability.tracer.chrome_trace_events(),
                    "metrics": observability.metrics.snapshot(),
                }
                observability.tracer.clear()
                observability.metrics.clear()
            results.send({
                "kind": "point", "worker": worker_id,
                "generation": generation, "job": job, "index": index,
                "payload": payload})
