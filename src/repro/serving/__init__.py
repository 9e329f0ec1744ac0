"""Crash-safe sweep serving for the eQASM reproduction.

The paper's toolflow exists to drive real experiments at production
cadence; this package is the layer that keeps that promise when
processes die.  A :class:`SweepService` executes parameter sweeps over
a supervised pool of worker processes (each owning one
:class:`~repro.uarch.machine.QuMAv2`), streaming per-point results and
structured supervision telemetry.  Every sweep pending when
:meth:`SweepService.serve` runs shares that drain's one pool: workers
are forked when the drain starts its first sweep with work to do, keep
their set-up across sweeps with the same ``setup_factory``, and are
reaped before ``serve()`` returns, however it ends.

The durability contract
-----------------------

1. **Per-point purity.**  A sweep point's
   :class:`~repro.uarch.trace.ShotCounts` is a pure function of
   ``(spec, point seed)``: seeds derive deterministically from
   ``(sweep seed, point index)``, and
   :func:`~repro.serving.sweep.execute_point` resets the plant RNG,
   the machine's derived caches, and data memory before each point.
   Re-running a point — on any worker, after any crash, in any order —
   is bit-identical.

2. **Durable before observable.**  Every completed point is appended
   to the checkpoint journal (JSONL, one record per line, SHA-256
   integrity digest per record) and flushed *before* it is yielded to
   the caller.  A journal is resumable from an arbitrary crash: the
   loader accepts the longest valid record prefix, detects and drops
   mid-record torn writes, and refuses journals whose header
   fingerprint does not match the sweep.

3. **Exactly-once accounting.**  The supervisor detects worker death
   (process exit), hangs (heartbeat timeout), and silent result loss
   (per-point progress deadline); it re-dispatches exactly the
   un-journaled indices of the affected shard.  Each point reports on
   its own message, tagged with its sweep's job number in the drain,
   so a straggler from an earlier sweep is dropped, never taken for a
   point of the current one.  Duplicate results —
   a re-dispatched point whose first result surfaced after all — are
   deduplicated, and the two copies are *compared*: a mismatch is an
   :class:`~repro.core.errors.ExperimentIntegrityError`, because it
   means contract (1) broke and no recovery guarantee survives it.
   A resumed-then-finished sweep therefore reports each point exactly
   once, bit-identical to an uninterrupted run.

4. **Bounded everything.**  Admission is refused past the pending
   queue bound (:class:`~repro.core.errors.AdmissionRejectedError`),
   sweeps abort past their wall-clock budget
   (:class:`~repro.core.errors.JobDeadlineError`, completed work kept
   journaled), and supervision gives up past its restart budget
   (:class:`~repro.core.errors.WorkerPoolError`) instead of retrying a
   crashing workload forever.  Shutdown drains gracefully once the
   last pending sweep completes: workers get a sentinel, finish their
   shard, and only stragglers are killed; a drain that ends any other
   way (an error, a deadline, a closed generator) kills its workers.

Chaos coverage: the fault sites
(:data:`~repro.uarch.faults.FAULT_SITES` — ``worker_crash``,
``worker_hang``, ``result_drop``) are armed on the *service* via a
deterministic :class:`~repro.uarch.faults.FaultPlan`, and the chaos
suite asserts the recovered distribution equals the fault-free one
bit for bit.  The machine itself carries no injection hook.
"""

from repro.serving.journal import CheckpointJournal, record_digest
from repro.serving.service import (
    ServiceConfig,
    ServiceStats,
    SupervisionEvent,
    SweepResult,
    SweepService,
)
from repro.serving.supervisor import WorkerHandle, WorkerPool
from repro.serving.sweep import (
    PointResult,
    SweepPoint,
    SweepSpec,
    derive_point_seed,
    execute_point,
)
from repro.serving.worker import Shard, worker_main

__all__ = [
    "CheckpointJournal",
    "PointResult",
    "ServiceConfig",
    "ServiceStats",
    "Shard",
    "SupervisionEvent",
    "SweepPoint",
    "SweepResult",
    "SweepService",
    "SweepSpec",
    "WorkerHandle",
    "WorkerPool",
    "derive_point_seed",
    "execute_point",
    "record_digest",
    "worker_main",
]
