"""The crash-safe sweep execution service.

:class:`SweepService` is the front end of :mod:`repro.serving`: submit
a :class:`~repro.serving.sweep.SweepSpec`, stream back one
:class:`~repro.serving.sweep.PointResult` per point, with every
supervision decision — restarts, re-dispatches, deadline hits, chaos
directives, torn journal records — recorded as structured telemetry on
:class:`ServiceStats` (never only in logs).

The service owns the control plane; the data plane is the supervised
worker pool of :mod:`repro.serving.supervisor`.  One pool serves a
whole :meth:`SweepService.serve` drain: it starts with the first sweep
that has points to execute, is kept warm across every sweep pending in
the drain, and is stopped gracefully when the queue is empty (killed
when the drain ends abnormally).  One single-threaded drive loop per
sweep interleaves four duties:

1. **dispatch** — shard pending points onto idle workers,
   ``ceil(pending / idle workers)`` points per shard (guided
   self-scheduling; one outstanding shard per worker is the natural
   backpressure bound, and every point still reports on its own);
2. **collect** — drain the result queue, deduplicate, journal each
   new point *before* yielding it (a result is durable before it is
   observable);
3. **supervise** — respawn dead workers, SIGKILL hung ones (stale
   heartbeat) and stalled ones (per-point progress deadline), and
   re-dispatch exactly the un-journaled indices of their shards;
4. **deadline** — abort the sweep with a structured
   :class:`~repro.core.errors.JobDeadlineError` when its wall-clock
   budget expires (completed points stay journaled, so a resubmission
   with the same journal resumes instead of restarting).

Admission control is up front: :meth:`SweepService.submit` refuses
work beyond the bounded pending queue with
:class:`~repro.core.errors.AdmissionRejectedError`, and a sweep whose
points keep crashing workers exhausts the restart budget and aborts
with :class:`~repro.core.errors.WorkerPoolError` rather than retrying
forever.
"""

from __future__ import annotations

import pickle
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterator

from repro.core.errors import (
    AdmissionRejectedError,
    ConfigurationError,
    ExperimentIntegrityError,
    InvalidRequestError,
    JobDeadlineError,
    WorkerPoolError,
)
from repro.obs import LATENCY_S_BOUNDS, Histogram
from repro.serving.journal import CheckpointJournal
from repro.serving.supervisor import WorkerPool
from repro.serving.sweep import PointResult, SweepSpec
from repro.serving.worker import Shard
from repro.uarch.faults import FAULT_SITES, FaultPlan


@dataclass(frozen=True)
class ServiceConfig:
    """Supervision and admission policy of a :class:`SweepService`."""

    #: Worker processes of a ``serve()`` drain (each owns one
    #: machine); the one pool serves every sweep of the drain, and
    #: each shard takes ``ceil(pending / idle workers)`` points.
    num_workers: int = 2
    #: A worker with outstanding work whose last heartbeat is older
    #: than this is declared hung and SIGKILLed.  Workers beat once
    #: per point, so the timeout must exceed the slowest single point.
    heartbeat_timeout_s: float = 30.0
    #: Drive-loop result-poll granularity.
    poll_interval_s: float = 0.02
    #: A dispatched shard must complete *some* point this often, or
    #: the worker is restarted and the leftovers re-dispatched (this
    #: is what catches dropped result messages).  None disables.
    point_deadline_s: float | None = None
    #: Wall-clock budget for a whole sweep; exceeding it raises
    #: :class:`JobDeadlineError`.  None disables.
    sweep_deadline_s: float | None = None
    #: Worker restarts (death + hang + stall combined) a single sweep
    #: may consume before the supervisor gives up.
    max_restarts: int = 8
    #: Times one point may report an execution error before the sweep
    #: aborts (failures are deterministic more often than not).
    max_point_failures: int = 2
    #: Bounded admission queue: sweeps submitted but not yet served.
    max_pending_sweeps: int = 2
    #: fsync the journal per record (machine-crash durability) instead
    #: of only flushing (process-crash durability).
    journal_fsync: bool = False
    #: Graceful-drain budget at sweep end before stragglers are killed.
    drain_timeout_s: float = 5.0
    #: How long an injected ``worker_hang`` sleeps (test hook — bounds
    #: a wedge if the hang watchdog itself is broken).
    hang_sleep_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ConfigurationError("num_workers must be at least 1")
        if self.heartbeat_timeout_s <= 0:
            raise ConfigurationError(
                "heartbeat_timeout_s must be positive")
        if self.poll_interval_s <= 0:
            raise ConfigurationError("poll_interval_s must be positive")
        if self.point_deadline_s is not None and self.point_deadline_s <= 0:
            raise ConfigurationError(
                "point_deadline_s must be positive (None disables)")
        if self.sweep_deadline_s is not None and self.sweep_deadline_s <= 0:
            raise ConfigurationError(
                "sweep_deadline_s must be positive (None disables)")
        if self.max_restarts < 0:
            raise ConfigurationError("max_restarts must be >= 0")
        if self.max_point_failures < 1:
            raise ConfigurationError(
                "max_point_failures must be at least 1")
        if self.max_pending_sweeps < 1:
            raise ConfigurationError(
                "max_pending_sweeps must be at least 1")
        if self.drain_timeout_s < 0:
            raise ConfigurationError("drain_timeout_s must be >= 0")


@dataclass(frozen=True)
class SupervisionEvent:
    """One structured supervision decision (telemetry, not logging)."""

    kind: str
    worker: int | None = None
    generation: int | None = None
    indices: tuple[int, ...] = ()
    detail: str = ""

    def describe(self) -> str:
        parts = [self.kind]
        if self.worker is not None:
            parts.append(f"worker={self.worker}.{self.generation}")
        if self.indices:
            parts.append(f"points={list(self.indices)}")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


@dataclass
class ServiceStats:
    """Aggregated serving telemetry, updated live while sweeps run.

    ``points_completed`` counts points *executed* this run;
    ``points_resumed`` counts points served straight from the journal.
    Their sum over a finished sweep equals the sweep's point count
    exactly once — the exactly-once accounting the chaos suite pins.
    """

    sweeps_submitted: int = 0
    sweeps_completed: int = 0
    points_total: int = 0
    points_completed: int = 0
    points_resumed: int = 0
    points_redispatched: int = 0
    points_failed: int = 0
    duplicate_results: int = 0
    worker_restarts: int = 0
    worker_deaths: int = 0
    heartbeat_timeouts: int = 0
    shard_deadline_hits: int = 0
    sweep_deadline_hits: int = 0
    admission_rejections: int = 0
    journal_torn_records: int = 0
    interpreter_shots: int = 0
    replay_shots: int = 0
    frame_batched_shots: int = 0
    #: Latency of every point *executed* this run (resumed points cost
    #: no execution), on the shared fixed-bound histogram — the one
    #: percentile implementation serving and the bench both use.
    point_latency: Histogram = field(
        default_factory=lambda: Histogram(LATENCY_S_BOUNDS))
    #: Chaos directives issued at dispatch ("site@pointN").
    chaos_directives: list[str] = field(default_factory=list)
    #: Every supervision decision, in order.
    events: list[SupervisionEvent] = field(default_factory=list)

    #: Scalar counter -> hierarchical metric name (``service.*``).
    _METRIC_NAMES = (
        ("sweeps_submitted", "service.sweeps.submitted"),
        ("sweeps_completed", "service.sweeps.completed"),
        ("points_total", "service.points.total"),
        ("points_completed", "service.points.completed"),
        ("points_resumed", "service.points.resumed"),
        ("points_redispatched", "service.points.redispatched"),
        ("points_failed", "service.points.failed"),
        ("duplicate_results", "service.points.duplicates"),
        ("worker_restarts", "service.workers.restarts"),
        ("worker_deaths", "service.workers.deaths"),
        ("heartbeat_timeouts", "service.workers.heartbeat_timeouts"),
        ("shard_deadline_hits", "service.deadlines.shard_hits"),
        ("sweep_deadline_hits", "service.deadlines.sweep_hits"),
        ("admission_rejections", "service.admission.rejections"),
        ("journal_torn_records", "service.journal.torn_records"),
        ("interpreter_shots", "service.shots.interpreter"),
        ("replay_shots", "service.shots.replay"),
        ("frame_batched_shots", "service.shots.frame_batched"),
    )

    def snapshot(self) -> "ServiceStats":
        copy = replace(self)
        copy.point_latency = self.point_latency.copy()
        copy.chaos_directives = list(self.chaos_directives)
        copy.events = list(self.events)
        return copy

    def as_dict(self) -> dict:
        """JSON-ready summary of the counters and point latencies."""
        payload = {name: getattr(self, name)
                   for name, _ in self._METRIC_NAMES}
        latency = self.point_latency
        payload["point_latency"] = {
            "count": latency.count,
            "p50_ms": latency.percentile(0.50) * 1e3,
            "p90_ms": latency.percentile(0.90) * 1e3,
            "p99_ms": latency.percentile(0.99) * 1e3,
        }
        payload["chaos_directives"] = list(self.chaos_directives)
        payload["events"] = [event.describe() for event in self.events]
        return payload

    def publish_metrics(self, registry) -> None:
        """Publish the current totals into ``registry`` under the
        ``service.*`` namespace.  Values are *assigned*, not
        incremented — the stats object is cumulative, so republishing
        after every sweep keeps the registry equal to the live totals
        instead of double-counting them."""
        for attr, name in self._METRIC_NAMES:
            registry.counter(name).value = int(getattr(self, attr))
        registry.counter("service.chaos_directives").value = \
            len(self.chaos_directives)
        registry.counter("service.supervision_events").value = \
            len(self.events)
        mirror = registry.histogram("service.point.latency_s",
                                    bounds=self.point_latency.bounds)
        source = self.point_latency
        mirror.bucket_counts[:] = source.bucket_counts
        mirror.count = source.count
        mirror.total = source.total
        mirror.min_value = source.min_value
        mirror.max_value = source.max_value


@dataclass
class SweepResult:
    """A fully collected sweep: per-point results plus telemetry."""

    sweep: str
    results: dict[int, PointResult]
    stats: ServiceStats


@dataclass(frozen=True)
class _Job:
    spec: SweepSpec
    journal_path: object | None


class SweepService:
    """Submit sweeps; stream crash-safe, exactly-once point results."""

    def __init__(self, config: ServiceConfig | None = None,
                 fault_plan: FaultPlan | None = None,
                 observability=None):
        self.config = config or ServiceConfig()
        self.fault_plan = fault_plan
        self.stats = ServiceStats()
        self._pending: deque[_Job] = deque()
        #: Optional :class:`repro.obs.Observability`.  When set, the
        #: drive loop records per-point dispatch-to-journal spans,
        #: mirrors every supervision decision as an instant trace
        #: event, and — for sweeps whose spec enables ``observe`` —
        #: ingests the worker-side spans/metrics that ride back on
        #: each result message.
        self.observability = observability
        #: Dispatch timestamp (monotonic ns) of every in-flight point,
        #: opening edge of its ``service.point`` span.
        self._dispatch_ns: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Chaos
    # ------------------------------------------------------------------
    def arm_faults(self, plan: FaultPlan | None) -> None:
        """Arm a process-level chaos plan (None disarms).  Every site
        of :data:`~repro.uarch.faults.FAULT_SITES` fires here; the
        plan's shot index means *sweep point index*."""
        self.fault_plan = plan

    # ------------------------------------------------------------------
    # Submission / admission
    # ------------------------------------------------------------------
    def submit(self, spec: SweepSpec, journal_path=None) -> None:
        """Queue a sweep for serving.

        Raises :class:`AdmissionRejectedError` when the bounded
        pending queue is full — backpressure at the front door instead
        of unbounded growth behind it — and
        :class:`InvalidRequestError` when the spec does not pickle:
        shards carry it to the workers, and a pickling error in the
        queue's feeder thread would hang the sweep instead of failing
        it.
        """
        try:
            pickle.dumps(spec)
        except Exception as error:  # noqa: BLE001 — re-raised typed
            raise InvalidRequestError(
                f"sweep {spec.name!r} does not pickle ({error!r}) — its "
                f"factories must be module-level callables") from error
        if len(self._pending) >= self.config.max_pending_sweeps:
            self.stats.admission_rejections += 1
            raise AdmissionRejectedError(
                f"sweep {spec.name!r} rejected: {len(self._pending)} "
                f"sweeps already pending (limit "
                f"{self.config.max_pending_sweeps}) — drain via "
                f"serve() or raise max_pending_sweeps",
                queue="sweep-admission",
                depth=self.config.max_pending_sweeps,
                occupancy=len(self._pending))
        self.stats.sweeps_submitted += 1
        self._pending.append(_Job(spec=spec, journal_path=journal_path))

    def serve(self) -> Iterator[PointResult]:
        """Drive every pending sweep, streaming results as they
        complete (journal-resumed points first, in index order; live
        points in completion order).

        One worker pool serves the whole drain: started for the first
        sweep with points to execute, kept across the rest, stopped
        gracefully once the queue is empty and killed when the drain
        ends otherwise (a raise, a deadline, a closed generator).
        Sweeps are numbered within the drain, and a worker message
        about an earlier sweep is dropped.
        """
        pool = WorkerPool(self.config.num_workers,
                          hang_sleep_s=self.config.hang_sleep_s)
        graceful = False
        try:
            number = 0
            while self._pending:
                number += 1
                yield from self._drive(self._pending.popleft(), number,
                                       pool)
            graceful = True
        finally:
            pool.stop(graceful=graceful,
                      timeout=self.config.drain_timeout_s)

    def run_sweep(self, spec: SweepSpec,
                  journal_path=None) -> SweepResult:
        """Submit one sweep and collect it to completion."""
        self.submit(spec, journal_path=journal_path)
        results: dict[int, PointResult] = {}
        for result in self.serve():
            if result.sweep == spec.name:
                results[result.index] = result
        return SweepResult(sweep=spec.name, results=results,
                           stats=self.stats_snapshot())

    def stats_snapshot(self) -> ServiceStats:
        """A stable copy of the live serving telemetry."""
        return self.stats.snapshot()

    # ------------------------------------------------------------------
    # The drive loop
    # ------------------------------------------------------------------
    def _event(self, kind: str, worker=None, generation=None,
               indices=(), detail="") -> None:
        self.stats.events.append(SupervisionEvent(
            kind=kind, worker=worker, generation=generation,
            indices=tuple(indices), detail=detail))
        obs = self.observability
        if obs is not None:
            obs.event(f"service.{kind}", worker=worker,
                      generation=generation, indices=list(indices),
                      detail=detail)

    def _drive(self, job: _Job, number: int,
               pool: WorkerPool) -> Iterator[PointResult]:
        obs = self.observability
        span = None if obs is None else obs.begin(
            "service.sweep", sweep=job.spec.name,
            points=job.spec.num_points, shots=job.spec.shots)
        journal = None
        try:
            spec = job.spec
            config = self.config
            stats = self.stats
            total = spec.num_points
            stats.points_total += total
            self._dispatch_ns.clear()

            completed: dict[int, PointResult] = {}
            if job.journal_path is not None:
                journal = CheckpointJournal(job.journal_path,
                                            fsync=config.journal_fsync)
                payloads = journal.load(spec)
                if journal.torn_records_dropped:
                    stats.journal_torn_records += \
                        journal.torn_records_dropped
                    self._event(
                        "journal_torn",
                        detail=f"dropped {journal.torn_records_dropped} "
                               f"torn/corrupt record(s)")
                for index in sorted(payloads):
                    result = PointResult.from_payload(
                        spec, payloads[index], resumed=True)
                    completed[index] = result
                    stats.points_resumed += 1
                    yield result

            pending: deque[int] = deque(index for index in range(total)
                                        if index not in completed)
            if not pending:
                stats.sweeps_completed += 1
                return

            if not pool.started:
                pool.start(spec)
            started = time.monotonic()
            restarts = 0
            failures: dict[int, int] = {}
            while len(completed) < total:
                self._check_sweep_deadline(spec, started, completed,
                                           total)
                self._dispatch(pool, spec, number, pending)
                for message in self._drain_messages(pool):
                    kind = message["kind"]
                    if message["job"] != number:
                        # A straggler of an earlier sweep of this
                        # drain: its index means another sweep's point.
                        self._event("stale_message",
                                    worker=message["worker"],
                                    generation=message["generation"],
                                    indices=(message["index"],)
                                    if "index" in message else (),
                                    detail=f"{kind} of job "
                                           f"{message['job']}")
                    elif kind == "point":
                        result = self._accept_point(
                            spec, message, completed, journal, pool)
                        if result is not None:
                            yield result
                    elif kind == "point_error":
                        self._handle_point_error(
                            spec, message, failures, pending, pool)
                    elif kind == "worker_error":
                        raise WorkerPoolError(
                            f"worker {message['worker']} could not "
                            f"build its experiment setup: "
                            f"{message['error']} — a setup factory "
                            f"failure is deterministic, restarting "
                            f"would loop",
                            restarts=restarts,
                            budget=config.max_restarts,
                            last_event=message["error"])
                restarts = self._supervise(pool, spec, pending,
                                           completed, restarts)
            for handle in pool.handles:
                handle.release()
            stats.sweeps_completed += 1
        finally:
            if journal is not None:
                journal.close()
            if obs is not None:
                obs.end(span)
                self.stats.publish_metrics(obs.metrics)

    # -- dispatch ------------------------------------------------------
    def _dispatch(self, pool: WorkerPool, spec: SweepSpec, number: int,
                  pending: deque) -> None:
        obs = self.observability
        idle = [handle for handle in pool.handles
                if handle.idle and handle.is_alive()]
        for position, handle in enumerate(idle):
            if not pending:
                break
            # Guided self-scheduling: split what is pending evenly over
            # the idle workers.
            size = -(-len(pending) // (len(idle) - position))
            indices, chaos = self._take_shard(pending, size, handle)
            handle.dispatch(Shard(job=number, spec=spec, indices=indices,
                                  chaos=chaos))
            if obs is not None:
                now = obs.clock()
                for index in indices:
                    self._dispatch_ns[index] = now
                obs.event("service.dispatch",
                          worker=handle.worker_id,
                          generation=handle.generation,
                          indices=list(indices))
        if obs is not None:
            obs.metrics.set_gauge("service.queue.pending",
                                  float(len(pending)))
            obs.metrics.set_gauge(
                "service.workers.idle",
                float(sum(1 for handle in pool.handles
                          if handle.idle and handle.is_alive())))

    def _take_shard(self, pending: deque, size: int, handle
                    ) -> tuple[tuple[int, ...], tuple[tuple[int, str], ...]]:
        """Pop up to ``size`` pending indices and their chaos
        directives.  A shard ends at the first point that draws a
        directive, so every directive issued is acted on: a worker
        that dies mid-shard never reaches the points after it."""
        plan = self.fault_plan
        if plan is None:
            return tuple(pending.popleft() for _ in range(size)), ()
        indices = []
        while pending and len(indices) < size:
            index = pending.popleft()
            indices.append(index)
            plan.begin_shot(index)
            for site in FAULT_SITES:
                if plan.fire(site):
                    self.stats.chaos_directives.append(
                        f"{site}@point{index}")
                    self._event("chaos", worker=handle.worker_id,
                                generation=handle.generation,
                                indices=(index,), detail=site)
                    return tuple(indices), ((index, site),)
        return tuple(indices), ()

    # -- collection ----------------------------------------------------
    def _drain_messages(self, pool: WorkerPool) -> list[dict]:
        return pool.receive(self.config.poll_interval_s)

    def _accept_point(self, spec: SweepSpec, message: dict,
                      completed: dict, journal, pool: WorkerPool
                      ) -> PointResult | None:
        stats = self.stats
        obs = self.observability
        index = message["index"]
        worker_id = message["worker"]
        generation = message["generation"]
        handle = pool.handle_for(worker_id, generation)
        payload = message["payload"]
        # Worker-side telemetry rides *beside* the result and is
        # detached here: the journal stores only the replayable point
        # payload, so traces never perturb resume fingerprints.
        worker_obs = payload.pop("obs", None)
        if index in completed:
            # A re-dispatched point finished twice (or a straggler
            # from a killed generation surfaced).  Exactly-once
            # accounting: ignore the copy — but both executions must
            # agree bit for bit, or per-point determinism is broken
            # and every crash-recovery guarantee with it.
            duplicate = PointResult.from_payload(spec, payload,
                                                 worker=worker_id)
            if duplicate.counts != completed[index].counts:
                raise ExperimentIntegrityError(
                    f"point {index} produced two different results "
                    f"on re-execution — per-point determinism "
                    f"violated",
                    index=index, sweep=spec.name)
            stats.duplicate_results += 1
            self._event("duplicate_result", worker=worker_id,
                        generation=generation, indices=(index,))
            if handle is not None:
                handle.mark_progress(index)
            return None
        result = PointResult.from_payload(spec, payload,
                                          worker=worker_id)
        if journal is not None:
            # Durability before observability: the point is journaled
            # (and flushed) before anyone sees it, so a crash between
            # journal and yield re-serves it from the journal rather
            # than losing it.
            journal_start = None if obs is None else obs.clock()
            journal.append_point(payload)
            if obs is not None:
                journal_end = obs.clock()
                obs.metrics.observe("service.journal.append.time_ns",
                                    journal_end - journal_start)
                obs.tracer.record_span(
                    "service.point.journal", journal_start,
                    journal_end, tid=index + 1,
                    parent="service.point", index=index)
        completed[index] = result
        stats.points_completed += 1
        stats.interpreter_shots += result.interpreter_shots
        stats.replay_shots += result.replay_shots
        stats.frame_batched_shots += result.frame_batched
        stats.point_latency.record(result.latency_s)
        if obs is not None:
            accepted = obs.clock()
            dispatched = self._dispatch_ns.pop(index, None)
            if dispatched is not None:
                # One track (tid) per point: the dispatch-to-accept
                # span contains the ingested worker-side execution
                # spans and the journal span by time containment,
                # which is exactly the nesting Perfetto renders.
                obs.tracer.record_span(
                    "service.point", dispatched, accepted,
                    tid=index + 1, parent="service.sweep",
                    index=index, worker=worker_id,
                    engine=result.engine)
            if worker_obs is not None:
                obs.tracer.ingest_chrome_events(
                    worker_obs["chrome"], pid=0, tid=index + 1)
                obs.metrics.merge_snapshot(worker_obs["metrics"])
        if handle is not None:
            handle.mark_progress(index)
        else:
            self._event("straggler_result", worker=worker_id,
                        generation=generation, indices=(index,),
                        detail="accepted from a retired generation")
        return result

    def _handle_point_error(self, spec: SweepSpec, message: dict,
                            failures: dict, pending: deque,
                            pool: WorkerPool) -> None:
        stats = self.stats
        index = message["index"]
        failures[index] = failures.get(index, 0) + 1
        stats.points_failed += 1
        self._event("point_error", worker=message["worker"],
                    generation=message["generation"],
                    indices=(index,), detail=message["error"])
        if failures[index] >= self.config.max_point_failures:
            raise WorkerPoolError(
                f"point {index} of sweep {spec.name!r} failed "
                f"{failures[index]} times "
                f"({message['error_type']}: {message['error']}) — "
                f"giving up rather than retrying a deterministic "
                f"failure forever",
                restarts=stats.worker_restarts,
                budget=self.config.max_point_failures,
                last_event=message["error"])
        handle = pool.handle_for(message["worker"],
                                 message["generation"])
        if handle is not None:
            handle.mark_progress(index)
        pending.append(index)

    # -- supervision ---------------------------------------------------
    def _supervise(self, pool: WorkerPool, spec: SweepSpec,
                   pending: deque, completed: dict, restarts: int) -> int:
        config = self.config
        stats = self.stats
        for handle in pool.handles:
            reason = None
            if not handle.is_alive():
                if not handle.assignment and not pending:
                    continue  # dead but idle at the very end: harmless
                reason = "worker_death"
                stats.worker_deaths += 1
            elif handle.assignment:
                if handle.heartbeat_age() > config.heartbeat_timeout_s:
                    reason = "heartbeat_timeout"
                    stats.heartbeat_timeouts += 1
                elif (config.point_deadline_s is not None
                      and handle.progress_age() is not None
                      and handle.progress_age()
                      > config.point_deadline_s):
                    reason = "shard_deadline"
                    stats.shard_deadline_hits += 1
            if reason is None:
                continue
            handle.kill()
            unfinished = tuple(sorted(
                index for index in handle.assignment
                if index not in completed))
            self._event(reason, worker=handle.worker_id,
                        generation=handle.generation,
                        indices=unfinished,
                        detail=f"restart {restarts + 1}/"
                               f"{config.max_restarts}")
            if unfinished:
                stats.points_redispatched += len(unfinished)
                self._event("redispatch", worker=handle.worker_id,
                            generation=handle.generation,
                            indices=unfinished)
                pending.extendleft(reversed(unfinished))
            restarts += 1
            if restarts > config.max_restarts:
                raise WorkerPoolError(
                    f"worker restart budget exhausted "
                    f"({restarts - 1} restarts, budget "
                    f"{config.max_restarts}) — the workload is "
                    f"killing workers faster than supervision can "
                    f"recover",
                    restarts=restarts - 1,
                    budget=config.max_restarts,
                    last_event=reason)
            handle.spawn(spec)
            stats.worker_restarts += 1
            self._event("worker_restart", worker=handle.worker_id,
                        generation=handle.generation)
        return restarts

    def _check_sweep_deadline(self, spec: SweepSpec, started: float,
                              completed: dict, total: int) -> None:
        deadline = self.config.sweep_deadline_s
        if deadline is None:
            return
        elapsed = time.monotonic() - started
        if elapsed <= deadline:
            return
        self.stats.sweep_deadline_hits += 1
        self._event("sweep_deadline",
                    detail=f"{len(completed)}/{total} points after "
                           f"{elapsed:.2f}s")
        raise JobDeadlineError(
            f"sweep {spec.name!r} exceeded its {deadline:.2f}s "
            f"deadline with {len(completed)}/{total} points complete "
            f"— completed points are journaled; resubmit with the "
            f"same journal to resume",
            deadline_s=deadline, elapsed_s=elapsed,
            completed_points=len(completed), total_points=total)
