"""QuMA v2: the quantum control microarchitecture (Fig. 9), simulated.

The machine executes an assembled eQASM binary against a quantum plant.
It is organised exactly as the paper's block diagram:

* a **classical pipeline** (100 MHz) fetches and executes instructions
  in order — auxiliary classical instructions locally, quantum
  instructions forwarded to the quantum pipeline; ``FMR`` stalls while
  the addressed Q register is invalid (the CFC counter mechanism);
* the **quantum pipeline** (reserve phase) builds timing points and
  per-qubit micro-operations (:mod:`repro.uarch.quantum_pipeline`);
* the **device event distributor** groups micro-ops per device and the
  **timing controller** (50 MHz) triggers each device operation at its
  timing point — events are simulated with a global chronological
  queue, so fast-conditional flag reads always observe the flag state
  of their trigger instant;
* **fast conditional execution** checks the selected execution flag of
  each target qubit at trigger time and cancels or releases the
  micro-operation;
* the **measurement discrimination unit** starts readouts on the plant
  and returns (or fabricates, for CFC verification) results which
  update the Q registers and execution flags after the transport and
  ingest latencies.

Timeline anchoring: the deterministic-domain timer starts when the
first timing point's reservation completes (the paper's "external
trigger" starting the timeline), so the first operation fires as soon
as the pipeline has filled and all later points keep their programmed
relative timing.  If a later point is reserved after its trigger was
due, the machine either raises (``late_policy="strict"``) or stalls the
timer and records the slip (``"slip"``) — this is the quantum-operation
issue-rate problem made observable.
"""

from __future__ import annotations

import heapq
import itertools
from collections import OrderedDict
from contextlib import closing
from typing import Callable, Iterator

from repro.core.assembler import AssembledProgram
from repro.core.encoding import InstructionDecoder
from repro.core.errors import (
    ConfigurationError,
    EQASMError,
    QueueOverflowError,
    RuntimeFault,
    ShotTimeoutError,
    TimingViolationError,
)
from repro.core.instructions import (
    ArithOp,
    Br,
    Bundle,
    Cmp,
    Fbr,
    Fmr,
    Instruction,
    Ld,
    Ldi,
    Ldui,
    LogicalOp,
    Nop,
    Not,
    QWait,
    QWaitR,
    SMIS,
    SMIT,
    St,
    Stop,
)
from repro.core.isa import EQASMInstantiation
from repro.core.microcode import MicrocodeUnit, MicroOpRole
from repro.core.operations import ExecutionFlag
from repro.core.registers import (
    ComparisonFlags,
    DataMemory,
    ExecutionFlagsFile,
    GPRFile,
    MeasurementResultRegisters,
    to_unsigned32,
)
from repro.quantum.pauli_frame import FrameRecorder, propagate_frames
from repro.quantum.plant import QuantumPlant
from repro.quantum.stabilizer import cached_clifford_action
from repro.uarch.config import UarchConfig
from repro.uarch.devices import (
    DeviceEventDistributor,
    DeviceOperation,
    EventQueue,
    PulseLibrary,
    QubitMicroOp,
)
from repro.uarch.dataflow import DataMemoryReport, analyze_data_memory
from repro.uarch.faults import FaultPlan
from repro.uarch.measurement import MeasurementUnit, PendingResult
from repro.uarch.quantum_pipeline import QuantumPipeline, ReservedPoint
from repro.uarch.replay import (
    EngineStats,
    MeasurementSample,
    ReplayAudit,
    ShotCohort,
    TimelineTree,
    replay_unsupported_reasons,
)

from repro.uarch.trace import (
    ResultRecord,
    ShotCounts,
    ShotTrace,
    SlipRecord,
    TriggerRecord,
)

#: Bound on retained cross-run timeline trees (LRU eviction).
_TREE_CACHE_CAPACITY = 16

#: Shots per vectorised chunk of the fast engines — one Pauli-frame
#: propagation batch, or one cohort walk of the replay tree: large
#: enough to amortise the per-step numpy dispatch, small enough that
#: the frame and outcome matrices stay cache-friendly and the first
#: traces reach a streaming run_iter consumer promptly.  run_counts
#: folds a chunk whole, run_iter splices it one trace at a time.  The
#: frame engine advances the run's EngineStats and fault-plan shot
#: index once per chunk; a replay cohort counts each shot as it is
#: delivered.
_CHUNK_SHOTS = 16384

#: Bound on retained dataflow analyses (LRU keyed by binary words), so
#: sweeps that reload many distinct binaries into one machine stop
#: recomputing the exploded graph per load().
_DATAFLOW_CACHE_CAPACITY = 64

#: Cached tree walks are timed into this counter pair (``.time_ns`` +
#: ``.timed_shots``, whose ratio is the mean per-shot walk cost): a
#: cohort walk is timed once, less its growth shots, and counts every
#: shot of its chunk; the per-shot walk loop times every 16th shot only
#: — a cached shot is so cheap (~10 us) that even two clock reads per
#: shot would blow the <=5% overhead budget.  The expensive shot kinds
#: (growth, audit, interpreter) keep full per-shot histograms.
_WALK_COUNTER = "engine.replay.walk"

#: The machine-level replay blockers.  Trajectory-sampled Pauli gate
#: noise on the stabilizer backend is the regime the Pauli-frame batch
#: serves; queued mock results block both fast engines.
_TRAJECTORY_BLOCKER = ("stochastic Pauli gate noise on the stabilizer "
                       "backend (per-shot trajectory sampling outside the "
                       "outcome history)")
_MOCK_BLOCKER = ("injected mock results vary across shots as their "
                 "queues drain")


#: Deterministic-domain events are heap tuples ``(time_ns, priority,
#: sequence, kind, payload)``; the unique push sequence breaks every
#: tie, so the payload is never compared.  Events at equal timestamps
#: resolve by priority: measurement results and the flag/Q-register
#: updates they cause settle within the cycle, before the timing
#: controller's trigger of that cycle evaluates any execution flag
#: ("once there returns a measurement result ... the fast conditional
#: execution unit immediately updates the execution flags", Section
#: 4.3).
_EVENT_PRIORITY = {"result": 0, "flag": 1, "qreg": 1, "trigger": 2}


def _stats_view(field_name: str, doc: str) -> property:
    """A read-only ``QuMAv2`` attribute reading one field of
    :attr:`QuMAv2.engine_stats`."""
    return property(
        lambda machine: getattr(machine.engine_stats, field_name), doc=doc)


class QuMAv2:
    """The microarchitecture simulator.

    Parameters
    ----------
    isa:
        The eQASM instantiation (operation set + topology + widths).
    plant:
        The quantum plant behind the ADI.
    config:
        Clock/latency/queue parameters; defaults to the calibrated
        paper-like configuration.
    """

    def __init__(self, isa: EQASMInstantiation, plant: QuantumPlant,
                 config: UarchConfig | None = None,
                 plant_backend: str = "auto",
                 audit_fraction: float = 0.0,
                 observability=None):
        if not 0.0 <= audit_fraction <= 1.0:
            raise ConfigurationError(
                f"audit_fraction must lie in [0, 1], "
                f"got {audit_fraction!r}")
        self.isa = isa
        self.plant = plant
        self.config = config or UarchConfig()
        self.microcode = MicrocodeUnit(isa.operations)
        self.quantum_pipeline = QuantumPipeline(isa, self.microcode)
        self.distributor = DeviceEventDistributor(isa.topology)
        self.pulses = PulseLibrary(isa.operations)
        self.measurement_unit = MeasurementUnit(
            plant, self.config, isa.measurement_cycles)
        self.gprs = GPRFile(isa.num_gprs)
        self.comparison_flags = ComparisonFlags()
        self.memory = DataMemory()
        self.q_registers = MeasurementResultRegisters(isa.topology.qubits)
        self.execution_flags = ExecutionFlagsFile(isa.topology.qubits)
        self._instructions: list[Instruction] = []
        # Per-instance handler cache: starts as the class dispatch
        # table and absorbs subclass resolutions as they are seen.
        self._dispatch: dict[type, Callable] = dict(self._DISPATCH)
        #: Plant-backend policy: "auto" (static Clifford/noise pass per
        #: run — the default), or "dense"/"stabilizer" to pin a backend.
        self.plant_backend_policy = plant_backend
        #: Per-run engine statistics (engine and backend chosen and why,
        #: shots per engine, segment-cache hits/misses); replaced by
        #: each run_iter().  The engine/backend labels below read it.
        self.engine_stats = EngineStats()
        #: Cross-run replay cache: saturated timeline trees keyed by
        #: (binary words, noise model, config) so repeated sweeps over
        #: one binary skip re-growing the tree per run() call.  The
        #: frozen noise/config dataclasses key by value, which is what
        #: invalidates a reused tree when either is swapped out.
        self._tree_cache: OrderedDict[tuple, TimelineTree] = OrderedDict()
        self._binary_key: tuple[int, ...] = ()
        # Per-binary static analyses, memoised in small LRUs keyed by
        # the binary words (the machine's microcode/operation set is
        # fixed, so the words fully determine both results) — sweeps
        # that reload many distinct binaries skip recomputation.
        self._data_memory_report: DataMemoryReport | None = None
        self._dataflow_cache: OrderedDict[tuple, DataMemoryReport] = \
            OrderedDict()
        self._plant_backend_reasons: list[str] | None = None
        #: Fraction of cache-hit replay shots shadow-run on the
        #: interpreter and compared bit-for-bit (self-verifying
        #: replay); 0.0 disables auditing.  Divergence evicts the
        #: tree from both caches and degrades the run — see
        #: :meth:`run_iter`.
        self.audit_fraction = audit_fraction
        self._audit_credit = 0.0
        #: Armed :class:`~repro.uarch.faults.FaultPlan` (None in
        #: production) — see :meth:`arm_faults`.
        self.fault_plan: FaultPlan | None = None
        # Fault records already mirrored as trace events this run.
        self._fault_record_base = 0
        # Wall time of the timed calls nested in the current _timed call.
        self._nested_ns = 0
        #: Observability handle (:class:`repro.obs.Observability`, None
        #: = disabled).  Assigned through the property so the plant's
        #: backend-kernel timing lands in the same registry; every hook
        #: below is a single ``is not None`` branch when disabled.
        self.observability = observability
        self._reset_shot_state()

    @property
    def observability(self):
        """The attached :class:`repro.obs.Observability` (or None)."""
        return self._obs

    @observability.setter
    def observability(self, obs) -> None:
        self._obs = obs
        self.plant.observability = obs

    # The engine/backend labels of the last run are views of its
    # EngineStats, never a second copy.
    last_run_engine = _stats_view(
        "engine", 'Which engine the last run used ("interpreter" | '
        '"replay" | "frame").')
    replay_fallback_reason = _stats_view(
        "fallback_reason", "Why the last run ended up on the interpreter "
        "(None when a fast path served it).")
    last_plant_backend = _stats_view(
        "plant_backend", 'Which plant backend the last run selected '
        '("stabilizer" | "dense").')
    plant_backend_reason = _stats_view(
        "plant_backend_reason", "Why the last run kept the dense backend "
        "(None on the tableau).")

    def arm_faults(self, plan: FaultPlan | None) -> None:
        """Arm a deterministic fault-injection plan (None disarms).

        The one plan is distributed to every subsystem with an
        injection site — the machine itself (``timing_overflow``,
        ``measurement_stall``, ``tree_bitflip``), the plant
        (``backend_gate``) and the measurement unit (``mock_exhaust``)
        — so one chaos experiment coordinates shot-pinned failures
        across the whole stack.
        """
        self.fault_plan = plan
        self.plant.fault_plan = plan
        self.measurement_unit.fault_plan = plan

    def disarm_faults(self) -> None:
        """Remove any armed fault-injection plan."""
        self.arm_faults(None)

    # ------------------------------------------------------------------
    # Program loading
    # ------------------------------------------------------------------
    def load(self, program: AssembledProgram | list[int]) -> None:
        """Load a binary into the instruction memory.

        Accepts either an :class:`AssembledProgram` or raw instruction
        words (of the instantiation's ``instruction_width`` — 32-bit
        for the paper's chips, 64-bit for surface-17); words are
        decoded through the instantiation's decoder, so the machine
        genuinely runs the binary encoding.
        """
        if isinstance(program, AssembledProgram):
            words = program.words
        else:
            words = list(program)
        decode = InstructionDecoder(self.isa).decode
        self._instructions = self._timed(list, map(decode, words),
                                         span="machine.load",
                                         instructions=len(words))
        self.quantum_pipeline.clear_decode_cache()
        self.distributor.clear_route_cache()
        self._binary_key = tuple(words)
        self._data_memory_report = self._dataflow_cache.get(
            self._binary_key)
        if self._data_memory_report is not None:
            self._dataflow_cache.move_to_end(self._binary_key)
        self._plant_backend_reasons = None
        if self._obs is not None and self._data_memory_report is not None:
            self._obs.metrics.inc("machine.dataflow_cache.hits")

    # ------------------------------------------------------------------
    # Shot state
    # ------------------------------------------------------------------
    def _reset_shot_state(self) -> None:
        self._pc = 0
        self._classical_time_ns = 0.0
        self._events: list[tuple] = []
        self._event_sequence = itertools.count()
        self._timeline_origin_ns: float | None = None
        self._outstanding_triggers = 0
        # (cycle, pair) -> halves released so far (source 1 | target 2).
        self._pending_pairs: dict[tuple[int, tuple[int, int]], int] = {}
        self._last_qreg_write_ns: dict[int, float] = {}
        # Keyed by the distributor's plain (kind value, index) pairs.
        self._device_queues: dict[tuple[str, int], EventQueue] = {}
        self._trace = ShotTrace()

    def reset_shot(self) -> None:
        """Reset everything that does not persist across shots.

        Data memory persists (it is the host communication channel);
        mock measurement results persist (they model UHFQC programming,
        configured once per experiment).
        """
        self._reset_shot_state()
        self.plant.reset_shot()
        self.quantum_pipeline.reset()
        self.gprs.reset()
        self.comparison_flags = ComparisonFlags()
        self.q_registers.reset()
        self.execution_flags.reset()

    # ------------------------------------------------------------------
    # Shot execution
    # ------------------------------------------------------------------
    def run_shot(self, max_instructions: int = 2_000_000) -> ShotTrace:
        """Execute the loaded program once and return its trace."""
        if not self._instructions:
            raise RuntimeFault("no program loaded")
        self.reset_shot()
        trace = self._trace
        budget_ns = self.config.shot_time_budget_ns
        while trace.instructions_executed < max_instructions:
            if self._pc < 0 or self._pc >= len(self._instructions):
                break  # fell off the end: implicit stop
            instruction = self._instructions[self._pc]
            self._drain_events_until(self._classical_time_ns)
            if budget_ns is not None and self._classical_time_ns > budget_ns:
                raise ShotTimeoutError(
                    f"shot exceeded its {budget_ns:.0f} ns time budget "
                    f"at {self._classical_time_ns:.0f} ns "
                    f"({trace.instructions_executed} instructions "
                    f"executed)",
                    budget_ns=budget_ns,
                    elapsed_ns=self._classical_time_ns,
                    instructions_executed=trace.instructions_executed)
            if isinstance(instruction, Stop):
                trace.stop_reached = True
                trace.instructions_executed += 1
                break
            self._execute(instruction)
            trace.instructions_executed += 1
        else:
            raise ShotTimeoutError(
                f"instruction limit ({max_instructions}) exceeded — "
                f"runaway program?",
                limit=max_instructions,
                instructions_executed=trace.instructions_executed,
                elapsed_ns=self._classical_time_ns)
        # End of program: flush the last buffered timing point and
        # drain every remaining deterministic-domain event.
        flushed = self.quantum_pipeline.flush_pending()
        if flushed is not None:
            self._schedule_point(flushed)
        self._drain_all_events()
        trace.classical_time_ns = self._classical_time_ns
        return trace

    def run(self, shots: int, max_instructions: int = 2_000_000,
            use_replay: bool = True) -> list[ShotTrace]:
        """Execute the program ``shots`` times (fresh state per shot).

        Replayable programs — including feedback programs using ``FMR``
        (CFC) and conditional micro-operations (fast conditional
        execution / active reset), counted-loop binaries (the dataflow
        pass unrolls resolvable backward branches) and programs whose
        data-memory traffic the pass proves shot-local (dead stores;
        spill/reload loads killed by a same-shot store) — take the
        branch-resolved replay fast path
        (see :mod:`repro.uarch.replay`): interpreter shots grow an
        outcome-keyed timeline-segment tree, and every shot whose
        sampled outcome path is already cached is served as a pure
        tree walk.  Hard blockers (loads that can observe another
        shot's memory, untranslatable operations, queued mock results)
        fall back to the interpreter transparently; ``use_replay=False``
        forces the interpreter.
        """
        return list(self.run_iter(shots, max_instructions,
                                  use_replay=use_replay))

    def run_iter(self, shots: int, max_instructions: int = 2_000_000,
                 use_replay: bool = True) -> Iterator[ShotTrace]:
        """Lazily yield ``shots`` traces (same engine selection as
        :meth:`run`), so high-shot callers can aggregate on the fly
        instead of holding every trace in memory.

        A run selects the plant backend once, runs the static analyses
        once (:meth:`_choose_engine`) and drains one engine generator —
        :meth:`_replay_shots`, :meth:`_frame_shots` or
        :meth:`_interpreter_shots`; a fast path that degrades mid-run
        finishes on the same interpreter loop.  Cached replay walks and
        Pauli-frame chunks arrive as templates plus sampled outcomes
        and are spliced here (:meth:`ShotTrace.with_sampled_results`),
        one trace at a time in shot order; a replay cohort of up to
        ``_CHUNK_SHOTS`` shots is expanded in shot order the same way
        (:meth:`ShotCohort.traces`).  :attr:`engine_stats` (which the
        engine/backend label properties read) is replaced when the
        first trace is produced, since generators run on demand, and
        keeps updating as shots are delivered: per shot on the
        interpreter and replay engines (a replay cohort counts each
        shot as it is yielded), per chunk of up to ``_CHUNK_SHOTS``
        shots on the frame engine (counted before the chunk's first
        trace is yielded, so ``shots_total`` is never below the number
        of traces delivered).

        With an attached :attr:`observability` handle the whole run is
        wrapped in a ``machine.run`` span, phase spans mark backend
        selection / dataflow / replay analysis, per-engine time lands
        in ``engine.*.time_ns`` histograms, and the finished run's
        :class:`EngineStats` fold into the metrics registry.
        """
        with closing(self._shot_items(shots, max_instructions,
                                      use_replay)) as items:
            for item in items:
                if isinstance(item, ShotTrace):
                    yield item
                elif isinstance(item, ShotCohort):
                    yield from item.traces(self.engine_stats)
                elif len(item) == 2:
                    template, outcomes = item
                    yield template.with_sampled_results(outcomes)
                else:
                    template, raw, reported = item
                    for raw_row, reported_row in zip(raw.tolist(),
                                                     reported.tolist()):
                        yield template.with_sampled_results(
                            list(zip(raw_row, reported_row)))

    def _shot_items(self, shots: int, max_instructions: int,
                    use_replay: bool) -> Iterator:
        """The one place a run's engine generator is drained.  Yields,
        in shot order, a :class:`ShotTrace` per interpreter, growth or
        audited shot, a :class:`ShotCohort` per replay chunk walked as
        cohorts, a ``(template, outcomes)`` pair per cached walk of the
        per-shot replay loop and a ``(template, raw, reported)``
        outcome batch per Pauli-frame chunk; :meth:`run_iter` splices
        the last three into traces, :meth:`run_counts` folds them
        directly.  A cohort is counted into :attr:`engine_stats` by
        whichever of the two delivers it."""
        obs = self._obs
        span = None if obs is None else obs.begin("machine.run",
                                                   shots=shots)
        stats = self.engine_stats = EngineStats()
        self._audit_credit = 0.0
        # Forced outcomes are a per-run_shot driving aid; a queue left
        # over from an earlier run_shot() would silently bias the first
        # shots here (and shift the replay engine's own forced prefixes
        # onto the wrong measurements), so multi-shot runs always start
        # from a clean slate.
        self.measurement_unit.clear_forced_results()
        plan = self.fault_plan
        try:
            if shots <= 0:
                return
            # Plant-backend selection comes first: every engine runs its
            # (reference/growth) shots against whichever backend is
            # live, and the replay blockers depend on the choice
            # (trajectory-sampled Pauli noise only exists on the tableau).
            kind, reason = self._timed(self._select_plant_backend,
                                       span="machine.select_backend")
            self.plant.use_backend(kind)
            stats.plant_backend = kind
            stats.plant_backend_reason = reason
            if plan is not None:
                plan.begin_run()
                self._fault_record_base = len(plan.records)
            engine = self._timed(
                self._choose_engine, kind, use_replay, shots,
                max_instructions, stats, plan,
                span="machine.replay_analysis")
            try:
                yield from engine
            finally:
                self._sync_faults(stats, plan)
        finally:
            if obs is not None:
                obs.record_engine_run(stats)
                obs.end(span, engine=stats.engine,
                        plant_backend=stats.plant_backend)

    def _choose_engine(self, kind: str, use_replay: bool, shots: int,
                       max_instructions: int, stats: EngineStats,
                       plan: FaultPlan | None) -> Iterator:
        """The (unstarted) shot generator of the engine the loaded
        program can use on backend ``kind``.  The fast paths label
        ``stats`` themselves; an interpreter run is labelled here, with
        every blocker as its reason.

        The dataflow report is read once and feeds the replay blockers,
        the replay engine's stats and tree cacheability.
        Stochastic Pauli gate noise blocks the outcome-keyed replay
        tree, but when it is the *only* blocker a feedback-free Clifford
        program rides the Pauli-frame batch (one reference tableau shot
        plus vectorised per-shot frames, see
        :mod:`repro.quantum.pauli_frame`) — so the frame engine's own
        checks run only then.
        """
        if not use_replay:
            reasons = ["replay disabled by caller"]
        else:
            report = self.data_memory_report()
            reasons = self._replay_blockers(kind, report)
            if reasons == [_TRAJECTORY_BLOCKER] and \
                    not self._frame_blockers():
                return self._frame_shots(shots, max_instructions, stats,
                                         plan)
            if not reasons:
                return self._replay_shots(shots, max_instructions, stats,
                                          plan, report)
        stats.engine = "interpreter"
        stats.fallback_reason = "; ".join(reasons)
        return self._interpreter_shots(0, shots, max_instructions, stats,
                                       plan)

    def _interpreter_shots(self, first_shot: int, shots: int,
                           max_instructions: int, stats: EngineStats,
                           plan: FaultPlan | None) -> Iterator[ShotTrace]:
        """Shots ``first_shot`` .. ``shots - 1``, one full interpreter
        shot each: the whole run when a hard blocker rules the fast
        paths out, the rest of the run when one degrades."""
        for shot_index in range(first_shot, shots):
            if plan is not None:
                plan.begin_shot(shot_index)
            stats.shots_total += 1
            stats.interpreter_shots += 1
            yield self._timed(self.run_shot, max_instructions,
                              histogram="engine.interpreter.shot.time_ns")

    def _replay_shots(self, shots: int, max_instructions: int,
                      stats: EngineStats, plan: FaultPlan | None,
                      report: DataMemoryReport) -> Iterator:
        """Serve the run from the branch-resolved timeline tree (see
        :mod:`repro.uarch.replay`).  A plain run walks the tree once
        per chunk of up to ``_CHUNK_SHOTS`` shots as index cohorts
        (:meth:`TimelineTree.sample_cohort`), growing unseen paths on
        the interpreter as it goes, and yields the chunk as one
        :class:`ShotCohort`.  Two kinds of run keep the per-shot walk
        loop (:meth:`TimelineTree.sample_shot`), whose seeded output
        they pin: runs with an armed fault plan (its sites are pinned
        to shot indices) and with ``audit_fraction > 0``.  There a
        cached outcome path is yielded unspliced as ``(template,
        outcomes)``, an unseen one as the trace of its growth shot (as
        is an audited walk, which the shadow comparison splices).  An
        audit divergence evicts the tree and hands the rest of the run
        to :meth:`_interpreter_shots`; a run whose every shot was a
        growth shot is labelled "interpreter", consistent with its
        split."""
        stats.engine = "replay"
        stats.dead_stores = report.dead_store_count
        stats.killed_loads = report.killed_load_count
        stats.bounded_loops = report.bounded_loop_count
        tree, stats.tree_reused = self._replay_tree(
            cacheable=report.cross_run_cacheable)

        def track_tree() -> None:
            stats.tree_nodes = tree.node_count
            stats.tree_paths = tree.path_count
            stats.growth_stopped_reason = tree.growth_stopped_reason

        track_tree()

        def grow(outcome_prefix: list[tuple[int, int]]) -> ShotTrace:
            return self._timed(
                self._grow_tree_shot, tree, outcome_prefix,
                max_instructions,
                histogram="engine.replay.growth_shot.time_ns")

        try:
            if plan is None and self.audit_fraction <= 0.0:
                for first in range(0, shots, _CHUNK_SHOTS):
                    chunk = min(shots - first, _CHUNK_SHOTS)
                    cohort = self._timed(tree.sample_cohort, chunk, grow,
                                         counter=_WALK_COUNTER,
                                         counted=chunk)
                    track_tree()
                    yield cohort
            else:
                for shot_index in range(shots):
                    if plan is not None:
                        plan.begin_shot(shot_index)
                        if plan.would_fire("tree_bitflip"):
                            detail = tree.corrupt_random_template(plan.rng)
                            if detail is not None:
                                plan.fire("tree_bitflip", detail=detail)
                    stats.shots_total += 1
                    if shot_index & 0xF:
                        template, outcomes = tree.sample_shot()
                    else:
                        template, outcomes = self._timed(
                            tree.sample_shot, counter=_WALK_COUNTER)
                    if template is None:
                        stats.segment_cache_misses += 1
                        stats.interpreter_shots += 1
                        trace = grow(outcomes)
                        track_tree()
                        yield trace
                        continue
                    stats.segment_cache_hits += 1
                    if not self._audit_due():
                        item = template, outcomes
                    else:
                        item = template.with_sampled_results(outcomes)
                        shadow, mismatched, detail = self._timed(
                            self._audit_replay_shot, item, max_instructions,
                            histogram="engine.replay.audit.time_ns")
                        stats.replay_audits += 1
                        stats.last_audit = ReplayAudit(
                            shot_index=shot_index,
                            mismatched_fields=tuple(mismatched),
                            tree_evicted=bool(mismatched), detail=detail)
                        if mismatched:
                            stats.audit_divergences += 1
                            self._degrade(stats, "replay", (
                                f"replay audit divergence at shot "
                                f"{shot_index} ({', '.join(mismatched)})"))
                            self._evict_tree(tree)
                            # The audited shot is served from the trusted
                            # shadow, the rest of the run by the interpreter.
                            stats.interpreter_shots += 1
                            yield (shadow if shadow is not None
                                   else self.run_shot(max_instructions))
                            yield from self._interpreter_shots(
                                shot_index + 1, shots, max_instructions,
                                stats, plan)
                            return
                    stats.replay_shots += 1
                    yield item
            if stats.replay_shots == 0:
                # Every shot was a growth shot — e.g. the outcome paths
                # exceed the tree caps from shot one.  Reporting
                # "replay" for a 100%-interpreter run would be a lie.
                reason = ("replay selected but every shot ran as an "
                          "interpreter growth shot")
                if tree.growth_stopped_reason is not None:
                    reason += f" ({tree.growth_stopped_reason})"
                stats.engine = "interpreter"
                stats.fallback_reason = reason
        finally:
            if plan is not None and plan.fired_this_run:
                # A fault that fired during this run may have stopped
                # tree growth early or corrupted cached state; never
                # let the tree leak into later runs through the
                # cross-run cache.
                self._evict_tree(tree)

    def _timed(self, call, *args, span: str | None = None,
               histogram: str | None = None, counter: str | None = None,
               counted: int = 1, **attributes):
        """``call(*args)``, the one engine timing hook.  With
        observability attached its wall time also lands in ``span``
        (with ``attributes``) and/or in the ``histogram`` time
        histogram, and its self time — less the timed calls nested in
        it — in the ``counter`` pair ``<counter>.time_ns`` +
        ``<counter>.timed_shots`` (advanced by ``counted``); otherwise
        it is a plain call."""
        obs = self._obs
        if obs is None or not (span or histogram or counter):
            return call(*args)
        start_ns = obs.clock()
        outer_ns, self._nested_ns = self._nested_ns, 0
        result = call(*args)
        end_ns = obs.clock()
        elapsed_ns = end_ns - start_ns
        if span is not None:
            obs.tracer.record_span(span, start_ns, end_ns, **attributes)
        if histogram is not None:
            obs.metrics.observe(histogram, elapsed_ns)
        if counter is not None:
            obs.metrics.inc(f"{counter}.time_ns",
                            elapsed_ns - self._nested_ns)
            obs.metrics.inc(f"{counter}.timed_shots", counted)
        self._nested_ns = outer_ns + elapsed_ns
        return result

    def _degrade(self, stats: EngineStats, engine: str,
                 reason: str) -> None:
        """Record that ``engine`` handed the rest of the run to the
        interpreter (and, when tracing, emit it as an event).  The run
        keeps its fast-path label only if that path served any shot."""
        stats.degradations.append(f"{engine} -> interpreter: {reason}")
        stats.fallback_reason = reason
        if stats.replay_shots == 0 and stats.frame_batched == 0:
            stats.engine = "interpreter"
        if self._obs is not None:
            self._obs.event("machine.degradation", engine=engine,
                            detail=reason)

    #: Trace fields the self-verifying audit compares bit-for-bit.
    _AUDIT_FIELDS = ("triggers", "results", "slips",
                     "instructions_executed", "classical_time_ns",
                     "stop_reached")

    def _audit_due(self) -> bool:
        """Deterministic audit cadence: every ``1/audit_fraction``-th
        cache-hit shot is shadowed (an accumulator, not an RNG draw,
        so audited runs stay exactly reproducible and never perturb
        the plant's random stream)."""
        fraction = self.audit_fraction
        if fraction <= 0.0:
            return False
        self._audit_credit += fraction
        if self._audit_credit >= 1.0 - 1e-12:
            self._audit_credit -= 1.0
            return True
        return False

    def _audit_replay_shot(self, trace: ShotTrace,
                           max_instructions: int):
        """Shadow-run one cached replay trace on the interpreter.

        The cached trace's ``(raw, reported)`` outcome sequence is
        forced onto the measurement unit, so the interpreter re-derives
        the *same* branch; every timing-visible field of the two traces
        must then agree bit-for-bit.  Returns ``(shadow_trace,
        mismatched_field_names, detail)`` — an empty mismatch list
        means the audit passed.  A shadow that raises is itself a
        divergence (the cached path claims a shot the interpreter
        cannot even complete).
        """
        outcomes = [(record.raw_result, record.reported_result)
                    for record in trace.results]
        self.measurement_unit.force_results(outcomes)
        try:
            shadow = self.run_shot(max_instructions)
        except EQASMError as error:
            return None, ["shadow-exception"], (
                f"interpreter shadow raised {type(error).__name__}: "
                f"{error}")
        finally:
            self.measurement_unit.clear_forced_results()
        mismatched = [name for name in self._AUDIT_FIELDS
                      if getattr(shadow, name) != getattr(trace, name)]
        return shadow, mismatched, (
            "cached replay trace diverged from its interpreter shadow"
            if mismatched else "")

    def _evict_tree(self, tree: TimelineTree) -> None:
        """Drop one tree from the cross-run cache (identity match).

        The in-run reference is the caller's to abandon; this makes
        sure no later ``run()`` resurrects the same object through the
        keyed cache."""
        for key in [key for key, value in self._tree_cache.items()
                    if value is tree]:
            del self._tree_cache[key]
            if self._obs is not None:
                self._obs.metrics.inc(
                    "engine.replay.tree_cache.evictions")

    def _sync_faults(self, stats: EngineStats,
                     plan: FaultPlan | None) -> None:
        """Mirror the plan's fired-fault records into the run stats
        (and, when tracing, emit each new record as a trace event)."""
        if plan is None:
            return
        stats.faults_injected = [record.describe()
                                 for record in plan.records]
        obs = self._obs
        if obs is not None:
            for record in plan.records[self._fault_record_base:]:
                obs.event("machine.fault_injected",
                          detail=record.describe())
            self._fault_record_base = len(plan.records)

    def data_memory_report(self) -> DataMemoryReport:
        """The dataflow pass's verdict on the loaded binary's ``LD``/
        ``ST`` traffic — see
        :func:`repro.uarch.dataflow.analyze_data_memory`.  Reports are
        retained in a small LRU keyed by the binary words (which, with
        the machine's fixed operation set, fully determine the
        analysis), so sweeps that re-:meth:`load` many distinct binaries
        — or alternate between a few — never recompute the exploded
        graph for a binary this machine has already analysed."""
        if self._data_memory_report is None:
            self._data_memory_report = self._timed(
                analyze_data_memory, self._instructions,
                span="machine.dataflow")
            self._dataflow_cache[self._binary_key] = \
                self._data_memory_report
            while len(self._dataflow_cache) > _DATAFLOW_CACHE_CAPACITY:
                self._dataflow_cache.popitem(last=False)
            if self._obs is not None:
                self._obs.metrics.inc("machine.dataflow_cache.misses")
        return self._data_memory_report

    def _slot_micro_ops(self) -> dict[str, list | None]:
        """Each distinct operation name in the loaded binary's bundles,
        in program order, mapped to its micro-operations (None when the
        microcode cannot translate it)."""
        table: dict[str, list | None] = {}
        for instruction in self._instructions:
            if not isinstance(instruction, Bundle):
                continue
            for slot in instruction.operations:
                if slot.name not in table:
                    try:
                        table[slot.name] = self.microcode.translate_name(
                            slot.name)
                    except Exception:
                        table[slot.name] = None
        return table

    def plant_backend_reasons(self) -> list[str]:
        """Every reason the loaded binary + noise model cannot run on
        the stabilizer-tableau plant backend (empty when they can).

        The static pass mirrors :meth:`replay_unsupported_reasons`: the
        tableau is sound exactly when (a) every gate micro-operation the
        binary can trigger resolves to a Clifford unitary
        (:func:`repro.quantum.stabilizer.cached_clifford_action` derives
        the symplectic action from the configured matrix, so any
        user-registered Clifford pulse qualifies) and (b) the noise
        model is Pauli/readout-only (idle T1/T2 decoherence is not a
        Pauli channel).  The binary-derived verdict is memoised until
        the next :meth:`load`; the noise verdict is re-read per call so
        a swapped ``plant.noise`` is honoured immediately.
        """
        if self._plant_backend_reasons is None:
            reasons: list[str] = []
            if not self._instructions:
                reasons.append("no program loaded")
            for name, micro_ops in self._slot_micro_ops().items():
                if micro_ops is None:
                    reasons.append(f"operation {name!r} is not translatable")
                    continue
                for micro_op in micro_ops:
                    if micro_op.is_measurement:
                        continue
                    operation = self.isa.operations.get(micro_op.operation)
                    if operation.unitary is None:
                        continue
                    if cached_clifford_action(operation.unitary) is None:
                        reasons.append(f"operation {micro_op.operation!r} "
                                       f"is not Clifford")
                        break
            self._plant_backend_reasons = reasons
        reasons = list(self._plant_backend_reasons)
        if not self.plant.noise.is_pauli_plus_readout:
            reasons.append(
                "noise model has non-Pauli idle decoherence (T1/T2)")
        return reasons

    def _select_plant_backend(self) -> tuple[str, str | None]:
        """Resolve the policy to a backend kind plus the dense reason.

        "auto" picks the tableau whenever the static pass admits it;
        pinning a backend skips the pass (a pinned tableau on a
        non-Clifford program fails at the offending gate, by design).
        """
        policy = self.plant_backend_policy
        if policy == "dense":
            return "dense", "plant backend pinned to dense by caller"
        if policy == "stabilizer":
            return "stabilizer", None
        if policy != "auto":
            raise RuntimeFault(
                f"unknown plant backend policy {policy!r} "
                f"(use 'auto', 'dense' or 'stabilizer')")
        reasons = self.plant_backend_reasons()
        if reasons:
            return "dense", "; ".join(reasons)
        return "stabilizer", None

    def _replay_tree(self, cacheable: bool) -> tuple[TimelineTree, bool]:
        """The timeline tree for the loaded binary: reused from the
        keyed cross-run cache when the (binary, noise, config) key
        matches an earlier ``run``, freshly grown otherwise.

        ``cacheable`` must be False for binaries with a reachable
        ``LD`` that is *not* killed by a same-shot store: data memory
        is the host communication channel and persists across runs, so
        the host may rewrite a loaded address between ``run()`` calls —
        state the cache key cannot see.  Such programs still replay
        (every shot of one run reads the same values), but their tree
        lives only for the duration of the run.  Killed loads only
        ever observe same-shot data, so spill/reload binaries stay
        cacheable (:attr:`DataMemoryReport.cross_run_cacheable`).
        """
        if not cacheable:
            return TimelineTree(self.plant), False
        key = (self._binary_key, self.plant.noise, self.config,
               self.plant.backend_kind)
        tree = self._tree_cache.get(key)
        obs = self._obs
        if tree is not None:
            self._tree_cache.move_to_end(key)
            if obs is not None:
                obs.metrics.inc("engine.replay.tree_cache.hits")
            return tree, True
        if obs is not None:
            obs.metrics.inc("engine.replay.tree_cache.misses")
        tree = TimelineTree(self.plant)
        self._tree_cache[key] = tree
        while len(self._tree_cache) > _TREE_CACHE_CAPACITY:
            self._tree_cache.popitem(last=False)
            if obs is not None:
                obs.metrics.inc("engine.replay.tree_cache.evictions")
        return tree, False

    def clear_replay_cache(self) -> None:
        """Drop every cached cross-run timeline tree *and* the
        per-machine dataflow-report LRU.

        Key-based invalidation is automatic (the caches key by binary
        words plus the frozen noise/config dataclasses); this is the
        explicit hatch for callers that mutate state the keys cannot
        see — e.g. re-seeding experiments that must re-grow trees, or
        the serving layer's per-point cold-start contract.  The
        dataflow reports are a pure static analysis of the binary, but
        the hatch's contract is *no derived state survives*: the
        currently loaded binary re-analyzes on its next use too.
        """
        self._tree_cache.clear()
        self._dataflow_cache.clear()
        self._data_memory_report = None

    def engine_stats_snapshot(self) -> EngineStats:
        """A point-in-time copy of the live per-run statistics.

        :attr:`engine_stats` mutates while :meth:`run_iter` streams;
        long sweeps that report the engine mix mid-flight snapshot it
        instead of aliasing the live object.
        """
        return self.engine_stats.snapshot()

    def _grow_tree_shot(self, tree: TimelineTree,
                        outcome_prefix: list[tuple[int, int]],
                        max_instructions: int) -> ShotTrace:
        """One interpreter shot that extends the timeline tree.

        The already-sampled outcome prefix (where the tree walk fell
        off a cached path) is forced onto the measurement unit, so the
        interpreter re-derives exactly the missing branch; measurements
        beyond the prefix sample fresh randomness.  The observed
        pre-collapse probabilities — the segment-boundary snapshots —
        are recorded through the plant's measure observer and inserted
        into the tree.
        """
        samples: list[MeasurementSample] = []

        def observe(qubit: int, start_ns: float, p_one: float) -> None:
            samples.append(MeasurementSample(qubit=qubit,
                                             start_ns=start_ns,
                                             p_one=p_one))

        self.plant.measure_observer = observe
        if outcome_prefix:
            self.measurement_unit.force_results(outcome_prefix)
        try:
            trace = self.run_shot(max_instructions)
        finally:
            self.plant.measure_observer = None
            self.measurement_unit.clear_forced_results()
        tree.grow(samples, trace)
        return trace

    def run_counts(self, shots: int, max_instructions: int = 2_000_000,
                   use_replay: bool = True) -> ShotCounts:
        """Execute ``shots`` shots and return the streaming aggregate.

        Same run as :meth:`run_iter` (same engine, draws and
        :attr:`engine_stats`), but counts-first: interpreter, growth
        and audited shots fold their traces
        (:meth:`ShotCounts.add`); a replay cohort folds each terminal
        it reached once, with its multiplicity (:meth:`ShotCohort.fold`
        — a cached walk's outcomes are its terminal template's own, so
        the template *is* the shot), as does a cached walk of the
        per-shot replay loop; and a Pauli-frame chunk folds its whole
        reported-outcome matrix (:meth:`ShotCounts.add_batch`) — no
        trace is spliced.  Memory
        stays O(qubits + replay-tree size) regardless of the shot
        count.
        """
        counts = ShotCounts()
        with closing(self._shot_items(shots, max_instructions,
                                      use_replay)) as items:
            for item in items:
                if isinstance(item, ShotTrace):
                    counts.add(item)
                elif isinstance(item, ShotCohort):
                    item.fold(counts, self.engine_stats)
                elif len(item) == 2:
                    # A cached walk's outcomes are its template's own.
                    counts.add(item[0])
                else:
                    template, _, reported = item
                    counts.add_batch(template, reported)
        return counts

    def replay_unsupported_reasons(self) -> list[str]:
        """Every reason the loaded program cannot use shot replay
        (empty if it can) — the static hard-blocker analysis of
        :func:`repro.uarch.replay.replay_unsupported_reasons`, plus two
        machine-level blockers.  When the selected plant backend is the
        stabilizer tableau *and* the noise model carries stochastic
        Pauli gate error, each shot samples a fresh Pauli trajectory —
        state the outcome-keyed tree cannot key on — so such runs stay
        on the interpreter (which the tableau still accelerates).  With
        zero gate error the tableau is deterministic given the outcome
        history and both fast paths compound.  Queued mock results
        (CFC verification) are the other: consecutive shots read
        different fabricated bits, and these short experiments run on
        the interpreter."""
        kind, _ = self._select_plant_backend()
        return self._replay_blockers(kind, self.data_memory_report())

    def _replay_blockers(self, kind: str,
                         report: DataMemoryReport) -> list[str]:
        """:meth:`replay_unsupported_reasons` for an already selected
        backend ``kind`` and dataflow ``report``."""
        reasons = replay_unsupported_reasons(
            self._instructions, self.microcode, data_memory_report=report)
        if kind == "stabilizer" and \
                not self.plant.noise.gate_error.is_zero:
            reasons.append(_TRAJECTORY_BLOCKER)
        if self.measurement_unit.has_any_mock_results():
            reasons.append(_MOCK_BLOCKER)
        return reasons

    def frame_batch_unsupported_reasons(self) -> list[str]:
        """Every reason the loaded program cannot use the Pauli-frame
        batched engine (empty when it can).

        The frame engine replays ONE recorded Clifford/measurement
        sequence for every shot, so on top of the replay engine's hard
        blockers it must prove the sequence cannot fork per shot: no
        ``FMR`` (a consumed result can steer later classical control
        flow), no conditionally executed micro-operations (fast
        conditional execution cancels gates on per-shot outcomes), and
        no injected mock results (their queues make consecutive shots
        see different values).  The caller separately requires the
        stabilizer backend with nonzero Pauli gate error — the one
        regime replay cannot serve.
        """
        return replay_unsupported_reasons(
            self._instructions, self.microcode,
            data_memory_report=self.data_memory_report()) + \
            self._frame_blockers()

    def _frame_blockers(self) -> list[str]:
        """The frame engine's own blockers (FMR, conditional
        micro-operations, mock results) — see
        :meth:`frame_batch_unsupported_reasons`."""
        reasons: list[str] = []
        if any(isinstance(instruction, Fmr)
               for instruction in self._instructions):
            reasons.append(
                "FMR feedback can fork the Clifford sequence on "
                "per-shot outcomes")
        for name, micro_ops in self._slot_micro_ops().items():
            if any(micro_op.condition is not ExecutionFlag.ALWAYS
                   for micro_op in micro_ops or ()):
                reasons.append(
                    f"operation {name!r} executes conditionally (the "
                    f"gate sequence forks on per-shot outcomes)")
        if self.measurement_unit.has_any_mock_results():
            reasons.append(_MOCK_BLOCKER)
        return reasons

    def _frame_shots(self, shots: int, max_instructions: int,
                     stats: EngineStats,
                     plan: FaultPlan | None) -> Iterator:
        """Serve ``shots`` shots through the Pauli-frame batched
        engine (see :mod:`repro.quantum.pauli_frame`).

        One noise-free interpreter shot runs with a
        :class:`FrameRecorder` installed on the stabilizer backend,
        capturing the Clifford sequence, every deferred gate-error site
        and the measurement structure; its trace becomes the frozen
        timeline template.  Chunks of per-shot frames then propagate
        through the recording with vectorised column operations; each
        chunk is yielded as one ``(template, raw, reported)`` batch of
        ``(chunk, measurements)`` outcome matrices, and stats and the
        fault plan's shot index advance per chunk.  A fault during the
        reference shot (e.g. the ``backend_gate`` site) degrades the
        whole run gracefully to the per-shot tableau interpreter,
        recorded in :attr:`EngineStats.degradations`.
        """
        stats.engine = "frame"
        backend = self.plant.backend
        recorder = FrameRecorder()
        if plan is not None:
            plan.begin_shot(0)
        degraded_reason = None
        backend.frame_recorder = recorder
        try:
            template = self._timed(self.run_shot, max_instructions,
                                   span="engine.frame.reference_shot")
        except EQASMError as error:
            degraded_reason = (f"frame reference shot failed "
                               f"({type(error).__name__}: {error})")
        finally:
            backend.frame_recorder = None
        if degraded_reason is None and \
                recorder.measure_count != len(template.results):
            # Forced/mocked results would bypass the backend recorder;
            # eligibility excludes them, so a mismatch means the
            # recording cannot drive the splice — never serve from it.
            degraded_reason = (
                f"frame recording captured {recorder.measure_count} "
                f"measurements but the reference trace holds "
                f"{len(template.results)}")
        if degraded_reason is not None:
            self._degrade(stats, "frame", degraded_reason)
            yield from self._interpreter_shots(0, shots, max_instructions,
                                               stats, plan)
            return
        stats.frame_reference_shots += 1
        readout = self.plant.noise.readout
        num_qubits = self.plant.num_qubits
        for first in range(0, shots, _CHUNK_SHOTS):
            chunk = min(shots - first, _CHUNK_SHOTS)
            if plan is not None:
                plan.begin_shot(first)
            raw, reported = self._timed(
                propagate_frames, recorder.steps, num_qubits, chunk,
                self.plant.rng, readout, span="engine.frame.batch",
                histogram="engine.frame.batch.time_ns", shots=chunk)
            stats.shots_total += chunk
            stats.frame_batched += chunk
            yield template, raw, reported

    # ------------------------------------------------------------------
    # Classical pipeline
    # ------------------------------------------------------------------
    def _advance_clock(self, cycles: int = 1) -> None:
        self._classical_time_ns += cycles * self.config.classical_cycle_ns

    def _execute(self, instruction: Instruction) -> None:
        """Execute one instruction; updates PC and the classical clock.

        Dispatch is a per-class handler table (built once at class
        definition) instead of an ``isinstance`` chain — the lookup is
        one dict access on the instruction's exact type, with a
        one-time MRO walk for unseen subclasses.
        """
        handler = self._dispatch.get(type(instruction))
        if handler is None:
            handler = self._resolve_handler(type(instruction))
        next_pc = handler(self, instruction)
        self._advance_clock()
        self._pc = self._pc + 1 if next_pc is None else next_pc

    def _resolve_handler(self, cls: type) -> Callable:
        """Find (and cache) the handler of an instruction subclass."""
        for base in cls.__mro__[1:]:
            handler = self._dispatch.get(base)
            if handler is not None:
                self._dispatch[cls] = handler
                return handler
        raise RuntimeFault(f"unhandled instruction {cls.__name__}")

    # Handlers return the next PC, or None for straight-line flow.
    def _exec_nop(self, instruction: Nop) -> None:
        return None

    def _exec_cmp(self, instruction: Cmp) -> None:
        self.comparison_flags.update(self.gprs.read(instruction.rs),
                                     self.gprs.read(instruction.rt))
        return None

    def _exec_br(self, instruction: Br) -> int | None:
        if isinstance(instruction.target, str):
            raise RuntimeFault(
                f"unresolved branch label {instruction.target!r}")
        if self.comparison_flags.test(instruction.condition):
            self._advance_clock(self.config.branch_taken_penalty_cycles)
            return self._pc + instruction.target
        return None

    def _exec_fbr(self, instruction: Fbr) -> None:
        value = int(self.comparison_flags.test(instruction.condition))
        self.gprs.write(instruction.rd, value)
        return None

    def _exec_ldi(self, instruction: Ldi) -> None:
        self.gprs.write(instruction.rd, to_unsigned32(instruction.imm))
        return None

    def _exec_ldui(self, instruction: Ldui) -> None:
        low = self.gprs.read(instruction.rs) & 0x1FFFF
        value = ((instruction.imm & 0x7FFF) << 17) | low
        self.gprs.write(instruction.rd, value)
        return None

    def _exec_ld(self, instruction: Ld) -> None:
        address = to_unsigned32(
            self.gprs.read(instruction.rt) + instruction.imm)
        self.gprs.write(instruction.rd, self.memory.load(address))
        return None

    def _exec_st(self, instruction: St) -> None:
        address = to_unsigned32(
            self.gprs.read(instruction.rt) + instruction.imm)
        self.memory.store(address, self.gprs.read(instruction.rs))
        return None

    def _exec_fmr(self, instruction: Fmr) -> None:
        self._execute_fmr(instruction)
        return None

    def _exec_logical(self, instruction: LogicalOp) -> None:
        s = self.gprs.read(instruction.rs)
        t = self.gprs.read(instruction.rt)
        if instruction.mnemonic_name == "AND":
            result = s & t
        elif instruction.mnemonic_name == "OR":
            result = s | t
        else:
            result = s ^ t
        self.gprs.write(instruction.rd, result)
        return None

    def _exec_not(self, instruction: Not) -> None:
        self.gprs.write(instruction.rd, ~self.gprs.read(instruction.rt))
        return None

    def _exec_arith(self, instruction: ArithOp) -> None:
        s = self.gprs.read(instruction.rs)
        t = self.gprs.read(instruction.rt)
        if instruction.mnemonic_name == "ADD":
            result = s + t
        else:
            result = s - t
        self.gprs.write(instruction.rd, result)
        return None

    def _exec_qwait(self, instruction: QWait) -> None:
        self._process_wait(instruction.cycles)
        return None

    def _exec_qwaitr(self, instruction: QWaitR) -> None:
        value = self.gprs.read(instruction.rs)
        # Only the low 20 bits participate (Section 4.2).
        self._process_wait(value & ((1 << 20) - 1))
        return None

    def _exec_smis(self, instruction: SMIS) -> None:
        self.quantum_pipeline.process_smis(instruction)
        return None

    def _exec_smit(self, instruction: SMIT) -> None:
        self.quantum_pipeline.process_smit(instruction)
        return None

    def _exec_bundle(self, instruction: Bundle) -> None:
        self._process_bundle(instruction)
        return None

    #: The per-class dispatch table (STOP is intercepted by the fetch
    #: loop before dispatch, exactly as before).
    _DISPATCH: dict[type, Callable] = {
        Nop: _exec_nop,
        Cmp: _exec_cmp,
        Br: _exec_br,
        Fbr: _exec_fbr,
        Ldi: _exec_ldi,
        Ldui: _exec_ldui,
        Ld: _exec_ld,
        St: _exec_st,
        Fmr: _exec_fmr,
        LogicalOp: _exec_logical,
        Not: _exec_not,
        ArithOp: _exec_arith,
        QWait: _exec_qwait,
        QWaitR: _exec_qwaitr,
        SMIS: _exec_smis,
        SMIT: _exec_smit,
        Bundle: _exec_bundle,
    }

    def _execute_fmr(self, instruction: Fmr) -> None:
        """FMR with the CFC stall: wait until C_i reaches zero.

        A stalled FMR is a completion signal for the operation
        combination buffer: the in-order classical pipeline cannot feed
        the quantum pipeline another bundle until the stall resolves, so
        the buffered timing point (e.g. the measurement this FMR waits
        on) is flushed downstream first.
        """
        register = self.q_registers.register(instruction.qubit)
        if not register.valid:
            pending_point = self.quantum_pipeline.flush_pending()
            if pending_point is not None:
                self._schedule_point(pending_point)
        while not register.valid:
            if not self._events:
                raise ShotTimeoutError(
                    f"FMR R{instruction.rd}, Q{instruction.qubit} waits "
                    f"forever: no measurement result will ever arrive",
                    qubit=instruction.qubit, register=instruction.rd,
                    elapsed_ns=self._classical_time_ns,
                    instructions_executed=self._trace.instructions_executed)
            self._process_event(heapq.heappop(self._events))
        write_time = self._last_qreg_write_ns.get(instruction.qubit)
        if write_time is not None and write_time > self._classical_time_ns:
            self._classical_time_ns = (
                write_time + self.config.fmr_resync_ns +
                self.config.fmr_unstall_penalty_cycles *
                self.config.classical_cycle_ns)
        self.gprs.write(instruction.rd, register.value)

    # ------------------------------------------------------------------
    # Quantum instruction handling (reserve phase)
    # ------------------------------------------------------------------
    def _process_wait(self, cycles: int) -> None:
        flushed = self.quantum_pipeline.process_wait(cycles)
        if flushed is not None:
            self._schedule_point(flushed)

    def _process_bundle(self, bundle: Bundle) -> None:
        flushed, new_entries = self.quantum_pipeline.process_bundle(
            bundle, self._classical_time_ns)
        if flushed is not None:
            self._schedule_point(flushed)
        # Measurement issue invalidates the Q register immediately
        # (Section 3.6, step 1).
        for entry in new_entries:
            if entry.micro_op.is_measurement:
                self.q_registers.register(entry.qubit).on_measure_issued()

    def _schedule_point(self, point: ReservedPoint) -> None:
        """Timing-queue insertion: compute the trigger time and enqueue."""
        config = self.config
        plan = self.fault_plan
        if plan is not None and plan.fire(
                "timing_overflow", cycle=point.cycle,
                occupancy=self._outstanding_triggers,
                depth=config.timing_queue_depth):
            # Injected saturation: the timing controller stops draining,
            # so the reserve phase's enqueue can never complete.
            raise QueueOverflowError(
                f"timing queue overflow injected at cycle {point.cycle}: "
                f"the reserve phase cannot enqueue against a saturated "
                f"timing controller",
                queue="timing", depth=config.timing_queue_depth,
                occupancy=self._outstanding_triggers, cycle=point.cycle)
        reserve_done = (point.reserved_at_ns +
                        config.quantum_pipeline_depth_cycles *
                        config.classical_cycle_ns)
        if self._timeline_origin_ns is None:
            self._timeline_origin_ns = (
                reserve_done - point.cycle * config.quantum_cycle_ns)
        due = (self._timeline_origin_ns +
               point.cycle * config.quantum_cycle_ns)
        if reserve_done > due + 1e-9:
            if config.late_policy == "strict":
                raise TimingViolationError(
                    f"timing point at cycle {point.cycle} reserved "
                    f"{reserve_done - due:.1f} ns after its trigger time "
                    f"(Rreq exceeds Rallowed)")
            # Slip policy: the timer stalls until the event arrives; all
            # later points are delayed by the same amount.
            self._trace.slips.append(SlipRecord(
                cycle=point.cycle, due_ns=due, actual_ns=reserve_done))
            self._timeline_origin_ns += reserve_done - due
            due = reserve_done
        # Timing-queue backpressure: a full queue stalls the reserve
        # phase until the controller catches up.
        while self._outstanding_triggers >= config.timing_queue_depth:
            if not self._events:
                break
            event = heapq.heappop(self._events)
            self._classical_time_ns = max(self._classical_time_ns, event[0])
            self._process_event(event)
        queues = self._device_queues
        for queue_key, device_op in self.distributor.route(point.cycle,
                                                           point.micro_ops):
            queue = queues.get(queue_key)
            if queue is None:
                queue = queues[queue_key] = EventQueue(
                    config.event_queue_depth)
            # Per-device event-queue backpressure (Fig. 9's FIFOs).
            while queue.full and self._events:
                event = heapq.heappop(self._events)
                self._classical_time_ns = max(self._classical_time_ns,
                                              event[0])
                self._process_event(event)
            queue.push(device_op)
            self._push_event(due, "trigger", (queue, device_op))
            self._outstanding_triggers += 1

    # ------------------------------------------------------------------
    # Deterministic-domain event machinery
    # ------------------------------------------------------------------
    def _push_event(self, time_ns: float, kind: str, payload) -> None:
        heapq.heappush(self._events, (
            time_ns, _EVENT_PRIORITY[kind], next(self._event_sequence),
            kind, payload))

    def _drain_events_until(self, time_ns: float) -> None:
        events = self._events
        while events and events[0][0] <= time_ns:
            self._process_event(heapq.heappop(events))

    def _drain_all_events(self) -> None:
        events = self._events
        while events:
            self._process_event(heapq.heappop(events))

    def _process_event(self, event: tuple) -> None:
        time_ns, _, _, kind, payload = event
        if kind == "trigger":
            self._outstanding_triggers -= 1
            self._trigger_device_operation(time_ns, *payload)
        elif kind == "result":
            self._on_result_arrival(time_ns, payload)
        elif kind == "flag":
            self.execution_flags.on_result(payload.qubit,
                                           payload.reported_result)
        elif kind == "qreg":
            self.q_registers.register(payload.qubit).on_result(
                payload.reported_result)
            self._last_qreg_write_ns[payload.qubit] = time_ns
        else:
            raise RuntimeFault(f"unknown event kind {kind}")

    # ------------------------------------------------------------------
    # Trigger phase: FCE + pulse generation + measurement start
    # ------------------------------------------------------------------
    def _trigger_device_operation(self, time_ns: float, queue: EventQueue,
                                  device_op: DeviceOperation) -> None:
        config = self.config
        # The timing controller consumes the device's event queue in
        # FIFO order; triggers are chronological per device, so the
        # popped entry must be the one due now.
        popped = queue.pop()
        if popped is not device_op:
            raise RuntimeFault(
                f"event queue of {device_op.device} delivered operations "
                f"out of order")
        output_ns = (time_ns + config.fce_evaluation_ns +
                     config.codeword_output_ns)
        for entry in device_op.micro_ops:
            micro_op = entry.micro_op
            passed = self.execution_flags.test(entry.qubit,
                                               micro_op.condition)
            self._trace.triggers.append(TriggerRecord(
                name=micro_op.operation, qubits=(entry.qubit,),
                cycle=device_op.cycle, trigger_ns=time_ns,
                output_ns=output_ns, executed=passed,
                condition=micro_op.condition.name))
            if not passed:
                continue
            if micro_op.is_measurement:
                self._start_measurement(entry, time_ns)
            elif micro_op.role is MicroOpRole.SINGLE:
                self._apply_single(entry, time_ns)
            else:
                self._collect_pair_half(entry, device_op.cycle, time_ns)

    def _start_measurement(self, entry: QubitMicroOp,
                           time_ns: float) -> None:
        pending = self.measurement_unit.start_measurement(entry.qubit,
                                                          time_ns)
        plan = self.fault_plan
        if plan is not None and plan.fire(
                "measurement_stall", qubit=entry.qubit,
                measure_start_ns=time_ns):
            # The result is lost on the UHFQC link: the readout ran but
            # nothing ever arrives at the controller.  A dependent FMR
            # then stalls forever and the shot-timeout guard fires.
            return
        self._push_event(pending.arrival_ns, "result", pending)

    def _on_result_arrival(self, time_ns: float,
                           pending: PendingResult) -> None:
        config = self.config
        self._trace.results.append(ResultRecord(
            qubit=pending.qubit, raw_result=pending.raw_result,
            reported_result=pending.reported_result,
            measure_start_ns=pending.measure_start_ns,
            arrival_ns=time_ns))
        # Execution flags refresh after ingest + combinatorial update;
        # the Q register write crosses into the classical domain.
        self._push_event(
            time_ns + config.result_ingest_ns + config.flag_update_ns,
            "flag", pending)
        self._push_event(
            time_ns + config.result_ingest_ns + config.qreg_write_ns,
            "qreg", pending)

    def _apply_single(self, entry: QubitMicroOp, time_ns: float) -> None:
        name = entry.micro_op.operation
        unitary = self.pulses.unitary_for(name)
        duration = (entry.micro_op.duration_cycles *
                    self.config.quantum_cycle_ns)
        self.plant.apply_unitary(name, unitary, (entry.qubit,), time_ns,
                                 duration)

    def _collect_pair_half(self, entry: QubitMicroOp, cycle: int,
                           time_ns: float) -> None:
        """Two-qubit gates: apply the joint unitary when both the
        source and target micro-operations have been released."""
        if entry.pair is None:
            raise RuntimeFault(
                f"{entry.micro_op.operation} micro-op lacks pair info")
        key = (cycle, entry.pair)
        halves = self._pending_pairs.pop(key, 0) | (
            1 if entry.micro_op.role is MicroOpRole.SOURCE else 2)
        if halves != 3:
            self._pending_pairs[key] = halves
        else:
            name = entry.micro_op.operation
            unitary = self.pulses.unitary_for(name)
            duration = (entry.micro_op.duration_cycles *
                        self.config.quantum_cycle_ns)
            self.plant.apply_unitary(name, unitary, entry.pair, time_ns,
                                     duration)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def instruction_memory(self) -> list[Instruction]:
        """The decoded instruction memory contents."""
        return list(self._instructions)
