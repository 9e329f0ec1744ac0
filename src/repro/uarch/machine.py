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
import math
from contextlib import closing
from dataclasses import replace
from typing import Callable, Iterator, NamedTuple

import numpy as np

from repro.core.assembler import AssembledProgram
from repro.core.encoding import InstructionDecoder
from repro.core.errors import (
    ConfigurationError,
    EQASMError,
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
)
from repro.quantum.noise import GateErrorModel
from repro.quantum.pauli_frame import (
    FrameRecording,
    frame_recording,
    propagate_frames,
)
from repro.quantum.plant import QuantumPlant
from repro.quantum.stabilizer import cached_clifford_action
from repro.uarch.config import UarchConfig
from repro.uarch.devices import (
    DeviceEventDistributor,
    DeviceOperation,
    EventQueue,
    PulseLibrary,
)
from repro.uarch.dataflow import DataMemoryReport, analyze_data_memory
from repro.uarch.measurement import MeasurementUnit, PendingResult
from repro.uarch.quantum_pipeline import QuantumPipeline, ReservedPoint
from repro.uarch.replay import (
    EngineStats,
    ReplayAudit,
    TimelineTree,
    replay_unsupported_reasons,
)

from repro.uarch.trace import (
    ResultRecord,
    ShotBatch,
    ShotCounts,
    ShotGroup,
    ShotTrace,
    SlipRecord,
    TriggerRecord,
)

#: Shots per vectorised chunk of the fast engines — one Pauli-frame
#: propagation batch, or one cohort walk of the replay tree.  A packed
#: frame chunk is 1024 words per plane, so per-step Python overhead,
#: not bits, dominates it; 65,536 keeps a typical 20,000-shot request
#: in one chunk while the first traces still reach a streaming
#: run_iter consumer promptly.  Either engine yields a chunk as one
#: ShotBatch, which run_counts folds whole and run_iter splices one
#: trace at a time, and counts it into the run's EngineStats whole
#: before yielding it; a replay chunk is also the unit its audits run
#: on.
_CHUNK_SHOTS = 65536

#: Cached tree walks are timed into this counter pair (``.time_ns`` +
#: ``.timed_shots``, whose ratio is the mean per-shot walk cost): each
#: cohort walk is timed once, less its growth shots, and counts every
#: shot of its chunk — a cached shot is so cheap that even two clock
#: reads per shot would blow the <=5% overhead budget.  The expensive
#: shot kinds (growth, audit, interpreter) keep full per-shot
#: histograms.
_WALK_COUNTER = "engine.replay.walk"

#: Cached routings kept before :meth:`QuMAv2._planned_routes` starts
#: over (a looping shot meets a new timing-point cycle per iteration).
ROUTE_CACHE_CAPACITY = 4096

#: The machine-level replay blockers.  Trajectory-sampled Pauli gate
#: noise on the stabilizer backend is the regime the Pauli-frame batch
#: serves; queued mock results block both fast engines.
_TRAJECTORY_BLOCKER = ("stochastic Pauli gate noise on the stabilizer "
                       "backend (per-shot trajectory sampling outside the "
                       "outcome history)")
_MOCK_BLOCKER = ("injected mock results vary across shots as their "
                 "queues drain")

#: The policies ``plant_backend=`` accepts (see
#: :meth:`QuMAv2._select_plant_backend`).
_PLANT_BACKEND_POLICIES = ("auto", "dense", "stabilizer")


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
_TRIGGER_PRIORITY = _EVENT_PRIORITY["trigger"]

#: What a :class:`_Step` does when it runs.  A pair half's kind is its
#: bit in the machine's pending-pair halves (source 1 | target 2); the
#: joint gate fires when both are in.
_MEASURE = 0
_SOURCE_HALF = 1
_TARGET_HALF = 2
_SINGLE = 4
_RESULT, _FLAG = 8, 16  # a result arrival, an execution-flag update


class _Step(NamedTuple):
    """The one representation of the trigger phase: one micro-op of a
    triggered device operation, or a result or flag event's
    measurement ``index``.  A micro-op step holds everything the loaded
    binary and the trigger time fix, both trigger records (executed and
    cancelled) included, so running it reads no enum name, role or
    pulse table.  ``unitary`` is the pulse library's read-only array
    (None for a measurement, or for an operation without a pulse, which
    then raises when released, as it always has)."""

    kind: int
    time_ns: float
    index: int = -1
    qubit: int = -1
    flag: ExecutionFlag | None = None  # None for ALWAYS: never tested
    executed: TriggerRecord | None = None
    cancelled: TriggerRecord | None = None
    name: str = ""
    unitary: np.ndarray | None = None
    targets: tuple[int, ...] | None = None
    duration_ns: float = 0.0
    key: tuple | None = None


class ShotProgram(NamedTuple):
    """An FMR-free binary's first pipeline shot, kept for its run: the
    steps it ran, in processing order, and the trace's shot-invariant
    part."""

    steps: tuple[_Step, ...]
    first: ShotTrace


class _BinaryVerdict(NamedTuple):
    """What the loaded binary alone decides about engine and backend:
    its dataflow report, its own blocker reasons per engine, and
    whether every shot reserves what the first one did (no ``FMR``, no
    replay blocker, no conditional measurement: see
    :meth:`QuMAv2._interpreter_shots`)."""

    report: DataMemoryReport
    replay: list[str]
    tableau: list[str]
    frame: list[str]
    reserves_once: bool


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
        if plant_backend not in _PLANT_BACKEND_POLICIES:
            raise ConfigurationError(
                f"unknown plant backend policy {plant_backend!r} "
                f"(use 'auto', 'dense' or 'stabilizer')")
        self.isa = isa
        self.plant = plant
        self.microcode = MicrocodeUnit(isa.operations)
        self.quantum_pipeline = QuantumPipeline(isa, self.microcode)
        self.distributor = DeviceEventDistributor(isa.topology)
        self.pulses = PulseLibrary(isa.operations)
        config = config or UarchConfig()
        self.measurement_unit = MeasurementUnit(
            plant, config, isa.measurement_cycles)
        self.config = config
        self.gprs = GPRFile(isa.num_gprs)
        self.comparison_flags = ComparisonFlags()
        self.memory = DataMemory()
        self.q_registers = MeasurementResultRegisters(isa.topology.qubits)
        self.execution_flags = ExecutionFlagsFile(isa.topology.qubits)
        self._instructions: list[Instruction] = []
        # Open only around one shot of _interpreter_shots: the list the
        # pipeline shot records the steps it runs into, or the program a
        # scheduled shot runs.
        self._stream: list[_Step] | None = None
        self._scheduled: ShotProgram | None = None
        #: Plant-backend policy: "auto" (static Clifford/noise pass per
        #: run — the default), or "dense"/"stabilizer" to pin a backend.
        self.plant_backend_policy = plant_backend
        #: Per-run engine statistics (engine and backend chosen and why,
        #: shots per engine, segment-cache misses); replaced by
        #: each run_iter().  The engine/backend labels below read it.
        self.engine_stats = EngineStats()
        # The words of the loaded binary; the state derived from them
        # (see _forget_binary) lives only while they stay loaded.
        self._words: tuple[int, ...] = ()
        self._forget_binary()
        #: Audit rate of self-verifying replay: cached shots earn
        #: ``audit_fraction`` credit each, and a walked terminal is
        #: shadow-run on the interpreter and compared bit-for-bit
        #: whenever the credit crosses 1; 0.0 disables auditing.
        #: Divergence drops the tree and degrades the run — see
        #: :meth:`_replay_shots`.
        self.audit_fraction = audit_fraction
        # Wall time of the timed calls nested in the current _timed call.
        self._nested_ns = 0
        #: Observability handle (:class:`repro.obs.Observability`, None
        #: = disabled).  Assigned through the property so the plant's
        #: backend-kernel timing lands in the same registry; every hook
        #: below is a single ``is not None`` branch when disabled.
        self.observability = observability
        self._reset_shot_state()

    @property
    def config(self) -> UarchConfig:
        """The clock/latency/queue parameters.  Assigning a new config
        also hands it to the measurement unit (result transport and
        integration window) and drops the cached trigger steps."""
        return self._config

    @config.setter
    def config(self, config: UarchConfig) -> None:
        self._config = config
        self.measurement_unit.config = config
        # (cycle, due, *ids of the micro-ops) -> (the micro-ops, ((queue
        # key, device op, steps), ...)); holding the micro-ops keeps
        # their ids from being reused.  The steps carry times derived
        # from the config, so a new one starts the cache over (see
        # _planned_routes).
        self._trigger_plans: dict[tuple, tuple[tuple, tuple]] = {}

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

    # ------------------------------------------------------------------
    # Program loading
    # ------------------------------------------------------------------
    def load(self, program: AssembledProgram | list[int]) -> None:
        """Load a binary into the instruction memory.

        Accepts either an :class:`AssembledProgram` or raw instruction
        words (of the instantiation's ``instruction_width`` — 32-bit
        for the paper's chips, 64-bit for surface-17); words are
        decoded through the instantiation's decoder, so the machine
        genuinely runs the binary encoding.  Reloading the same words
        keeps what the machine derived from them (static verdicts and
        the replay tree); different words drop it.
        """
        words = tuple(program.words if isinstance(program, AssembledProgram)
                      else program)
        decode = InstructionDecoder(self.isa).decode
        self._instructions = self._timed(list, map(decode, words),
                                         span="machine.load",
                                         instructions=len(words))
        self.quantum_pipeline.clear_decode_cache()
        self._trigger_plans.clear()
        if words != self._words:
            self._words = words
            self._forget_binary()

    def _forget_binary(self) -> None:
        """Drop everything derived from the loaded binary: its static
        verdicts, computed once per binary on first use, and the one
        kept engine state — the replay engine's timeline tree or the
        frame engine's reference recording — with the (noise, config,
        backend kind) it was built under."""
        self._data_memory_report: DataMemoryReport | None = None
        self._verdict: _BinaryVerdict | None = None
        self._tree: TimelineTree | None = None
        self._tree_key: tuple | None = None

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
        # The shot's started measurements in start order; result, flag
        # and Q-register events carry an index into it.
        self._measured: list[PendingResult] = []
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
        self.comparison_flags.reset()
        self.q_registers.reset()
        self.execution_flags.reset()

    # ------------------------------------------------------------------
    # Shot execution
    # ------------------------------------------------------------------
    def run_shot(self, max_instructions: int = 2_000_000) -> ShotTrace:
        """Execute the loaded program once and return its trace.

        Called directly it always runs the whole pipeline, whose
        trigger phase runs each event's steps (:meth:`_run_steps`);
        only a scheduled shot of :meth:`_interpreter_shots` runs the
        first shot's steps again instead (:meth:`_run_scheduled`)."""
        if not self._instructions:
            raise RuntimeFault("no program loaded")
        if self._scheduled is not None:
            return self._run_scheduled(self._scheduled)
        self.reset_shot()
        trace = self._trace
        budget_ns = self._config.shot_time_budget_ns
        instructions = self._instructions
        events = self._events
        while trace.instructions_executed < max_instructions:
            if self._pc < 0 or self._pc >= len(instructions):
                break  # fell off the end: implicit stop
            instruction = instructions[self._pc]
            # Drain the deterministic-domain events due by now.
            while events and events[0][0] <= self._classical_time_ns:
                self._process_event(heapq.heappop(events))
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

    def run(self, shots: int, use_replay: bool = True) -> list[ShotTrace]:
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

        An interpreter run of more than one shot reserves once when the
        binary has no ``FMR``, no replay blocker and no conditional
        measurement: without ``FMR`` no outcome flows back into the
        reserve phase, so only the first shot runs the classical
        pipeline, decode, timing queue and event heap, and every later
        shot runs the trigger steps it ran against the live plant, in
        the same loop (fast conditional execution still reads each
        shot's own results).  The traces and every plant RNG draw equal
        the per-shot pipeline's; ``use_replay=False`` keeps that
        pipeline for every shot.
        """
        return list(self.run_iter(shots, use_replay=use_replay))

    def run_iter(self, shots: int,
                 use_replay: bool = True) -> Iterator[ShotTrace]:
        """Lazily yield ``shots`` traces (same engine selection as
        :meth:`run`), so high-shot callers can aggregate on the fly
        instead of holding every trace in memory.

        A run selects the plant backend once, runs the static analyses
        once (:meth:`_choose_engine`) and drains one engine generator —
        :meth:`_replay_shots`, :meth:`_frame_shots` or
        :meth:`_interpreter_shots`; a fast path that degrades mid-run
        finishes on the same interpreter loop.  Interpreter shots
        arrive as traces; a replay or Pauli-frame chunk of up to
        ``_CHUNK_SHOTS`` shots arrives as one :class:`ShotBatch`,
        expanded here in shot order (:meth:`ShotBatch.traces`, which
        splices each cached shot's trace from its template).
        :attr:`engine_stats` (which the
        engine/backend label properties read) is replaced when the
        first trace is produced, since generators run on demand, and
        keeps updating as shots are delivered: per shot on the
        interpreter, per chunk on the replay and frame engines (counted
        before the chunk's first trace is yielded, so ``shots_total``
        is never below the number of traces delivered).

        With an attached :attr:`observability` handle the whole run is
        wrapped in a ``machine.run`` span, phase spans mark backend
        selection / dataflow / replay analysis, per-engine time lands
        in ``engine.*.time_ns`` histograms, and the finished run's
        :class:`EngineStats` fold into the metrics registry.
        """
        with closing(self._shot_items(shots, use_replay)) as items:
            for item in items:
                if isinstance(item, ShotTrace):
                    yield item
                else:
                    yield from item.traces()

    def _shot_items(self, shots: int, use_replay: bool) -> Iterator:
        """The one place a run's engine generator is drained.  Yields,
        in shot order, a :class:`ShotTrace` per interpreter shot or a
        :class:`ShotBatch` per replay chunk (its growth shots included)
        or Pauli-frame chunk, already counted into :attr:`engine_stats`
        by the engine that yielded it.  :meth:`run_iter` splices a
        batch into traces, :meth:`run_counts` folds it directly."""
        obs = self._obs
        span = None if obs is None else obs.begin("machine.run",
                                                   shots=shots)
        stats = self.engine_stats = EngineStats()
        # Forced outcomes are a per-run_shot driving aid; a queue left
        # over from an earlier run_shot() would silently bias the first
        # shots here (and shift the replay engine's own forced prefixes
        # onto the wrong measurements), so multi-shot runs always start
        # from a clean slate.
        self.measurement_unit.clear_forced_results()
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
            yield from self._timed(
                self._choose_engine, kind, use_replay, shots, stats,
                span="machine.replay_analysis")
        finally:
            if obs is not None:
                obs.record_engine_run(stats)
                obs.end(span, engine=stats.engine,
                        plant_backend=stats.plant_backend)

    def _choose_engine(self, kind: str, use_replay: bool, shots: int,
                       stats: EngineStats) -> Iterator:
        """The (unstarted) shot generator of the engine the loaded
        program can use on backend ``kind``.  The fast paths label
        ``stats`` themselves; an interpreter run is labelled here, with
        every blocker as its reason.

        The binary's static verdict (:meth:`_binary_verdict`) decides
        with two run-time facts, stochastic Pauli gate noise on the
        stabilizer backend and queued mock results: with neither a
        static replay blocker nor a mock, a run takes the replay tree
        without that noise and the Pauli-frame batch with it, if the
        binary has no frame blocker (:mod:`repro.quantum.pauli_frame`).
        """
        reserve_once = False
        if not use_replay:
            reasons = ["replay disabled by caller"]
        else:
            verdict = self._binary_verdict()
            blockers = self._run_blockers(kind)
            fast = not verdict.replay and _MOCK_BLOCKER not in blockers
            if fast and not blockers:
                return self._replay_shots(
                    shots, stats, verdict.report,
                    outcome_independent=not verdict.frame)
            if fast and not verdict.frame:
                return self._frame_shots(shots, stats, verdict.report)
            reasons = verdict.replay + blockers
            reserve_once = verdict.reserves_once
        stats.engine = "interpreter"
        stats.fallback_reason = "; ".join(reasons)
        return self._interpreter_shots(shots, stats, reserve_once)

    def _run_blockers(self, kind: str | None) -> list[str]:
        """The run-time fast-path blockers, in reason order: stochastic
        Pauli gate noise on backend ``kind`` (None skips that check)
        and queued mock results."""
        reasons = []
        if kind == "stabilizer" and not self.plant.noise.gate_error.is_zero:
            reasons.append(_TRAJECTORY_BLOCKER)
        if self.measurement_unit.has_any_mock_results():
            reasons.append(_MOCK_BLOCKER)
        return reasons

    def _interpreter_shots(self, shots: int, stats: EngineStats,
                           reserve_once: bool = False
                           ) -> Iterator[ShotTrace]:
        """``shots`` interpreter shots: the whole run when a hard
        blocker rules the fast paths out, the rest of the run when one
        degrades.

        With ``reserve_once`` (a :attr:`_BinaryVerdict.reserves_once`
        binary on a replay-enabled run of more than one shot) only the
        first shot runs the pipeline.  It records the steps its trigger
        phase runs (:class:`_Step`), in processing order, into
        :attr:`_stream`: each device operation's micro-op steps (the
        route cache's own objects), each result arrival and each flag
        update.  Without ``FMR`` no outcome reaches the reserve phase,
        so every later shot would reserve, schedule and trigger the
        same steps; a scheduled shot (still served by :meth:`run_shot`)
        runs them, as a :class:`ShotProgram`, through the same
        :meth:`_run_steps` against the live plant instead
        (:meth:`_run_scheduled`), bit-identical to the pipeline.  The
        program lives for this run only."""
        scheduled = None
        for index in range(shots):
            stats.shots_total += 1
            stats.interpreter_shots += 1
            record = reserve_once and index == 0 and shots > 1
            stream = self._stream = [] if record else None
            self._scheduled = scheduled
            try:
                trace = self._timed(
                    self.run_shot,
                    histogram="engine.interpreter.shot.time_ns")
            finally:
                self._stream = self._scheduled = None
            if record:
                scheduled = ShotProgram(tuple(stream), replace(
                    trace, triggers=[], results=[], slips=list(trace.slips)))
            yield trace

    def _replay_shots(self, shots: int, stats: EngineStats,
                      report: DataMemoryReport,
                      outcome_independent: bool) -> Iterator:
        """Serve the run from the branch-resolved timeline tree (see
        :mod:`repro.uarch.replay`): walk it once per chunk of up to
        ``_CHUNK_SHOTS`` shots as index cohorts
        (:meth:`TimelineTree.sample_cohort`), growing unseen paths on
        the interpreter as it goes (an ``outcome_independent`` binary,
        without ``FMR`` or conditional micro-ops, builds its terminals
        from the first growth shot instead), and yield the chunk as one
        :class:`ShotBatch` (a group per reached terminal, plus the
        growth traces), counted into ``stats`` before it is yielded:
        its growth shots as interpreter shots and cache misses, the
        rest as replay shots.  With ``audit_fraction > 0`` the walked
        terminals are audited before the chunk is counted and yielded;
        a divergence drops the chunk uncounted, evicts the tree and
        hands the chunk and the rest of the run to
        :meth:`_interpreter_shots`.  A run whose every shot was a
        growth shot is labelled "interpreter", consistent with its
        split."""
        stats.engine = "replay"
        stats.dead_stores = report.dead_store_count
        stats.killed_loads = report.killed_load_count
        stats.bounded_loops = report.bounded_loop_count
        tree, stats.tree_reused = self._replay_tree(
            report.cross_run_cacheable, lambda: TimelineTree(
                self.plant, outcome_independent=outcome_independent))

        def track_tree() -> None:
            stats.tree_nodes = tree.node_count
            stats.tree_paths = tree.path_count
            stats.growth_stopped_reason = tree.growth_stopped_reason

        track_tree()

        def grow(outcome_prefix: list[tuple[int, int]]) -> ShotTrace:
            return self._timed(
                self._grow_tree_shot, tree, outcome_prefix,
                histogram="engine.replay.growth_shot.time_ns")

        credit = 0.0
        for first in range(0, shots, _CHUNK_SHOTS):
            chunk = min(shots - first, _CHUNK_SHOTS)
            batch = self._timed(tree.sample_cohort, chunk, grow,
                                counter=_WALK_COUNTER, counted=chunk)
            track_tree()
            # Deterministic audit cadence (a credit accumulator, not an
            # RNG draw, so audits never perturb the plant's random
            # stream): each cached shot earns ``audit_fraction``, and
            # one audit of a terminal checks every shot on it, so it
            # spends all whole credit.
            for group in batch.groups:
                credit += group.size * self.audit_fraction
                if credit < 1.0 - 1e-12:
                    continue
                credit -= math.floor(credit + 1e-12)
                shot_index = first + int(group.indices[0])
                mismatched, detail = self._timed(
                    self._audit_replay_shot, group.template,
                    histogram="engine.replay.audit.time_ns")
                stats.replay_audits += 1
                stats.last_audit = ReplayAudit(
                    shot_index=shot_index, mismatched_fields=mismatched,
                    tree_evicted=bool(mismatched), detail=detail)
                if mismatched:
                    # The run keeps its "replay" label only if an
                    # earlier chunk was served from the tree.
                    stats.audit_divergences += 1
                    reason = (f"replay audit divergence at shot "
                              f"{shot_index} ({', '.join(mismatched)})")
                    stats.degradations.append(
                        f"replay -> interpreter: {reason}")
                    stats.fallback_reason = reason
                    if stats.replay_shots == 0:
                        stats.engine = "interpreter"
                    if self._obs is not None:
                        self._obs.event("machine.degradation",
                                        engine="replay", detail=reason)
                    if self._tree is tree:
                        self._tree = None  # no later run reuses it
                    yield from self._interpreter_shots(shots - first, stats)
                    return
            grown = len(batch.growth)
            stats.shots_total += chunk
            stats.interpreter_shots += grown
            stats.segment_cache_misses += grown
            stats.replay_shots += chunk - grown
            yield batch
        if stats.replay_shots == 0:
            # Every shot was a growth shot — e.g. the outcome paths
            # exceed the tree caps from shot one.  Reporting "replay"
            # for a 100%-interpreter run would be a lie.
            reason = ("replay selected but every shot ran as an "
                      "interpreter growth shot")
            if tree.growth_stopped_reason is not None:
                reason += f" ({tree.growth_stopped_reason})"
            stats.engine = "interpreter"
            stats.fallback_reason = reason

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

    #: Trace fields the self-verifying audit compares bit-for-bit.
    _AUDIT_FIELDS = ("triggers", "results", "slips",
                     "instructions_executed", "classical_time_ns",
                     "stop_reached")

    def _audit_replay_shot(self, template: ShotTrace
                           ) -> tuple[tuple[str, ...], str]:
        """Shadow-run one cached terminal template on the interpreter.

        The template's ``(raw, reported)`` outcome path is forced onto
        the measurement unit, so the interpreter re-derives the *same*
        branch; every timing-visible field of the shadow and the
        template must then agree bit-for-bit.  Returns
        ``(mismatched_field_names, detail)`` — no mismatch means the
        audit passed.  A shadow that raises is itself a divergence
        (the cached path claims a shot the interpreter cannot even
        complete).
        """
        self.measurement_unit.force_results(template.outcome_path())
        try:
            shadow = self.run_shot()
        except EQASMError as error:
            return ("shadow-exception",), (
                f"interpreter shadow raised {type(error).__name__}: "
                f"{error}")
        finally:
            self.measurement_unit.clear_forced_results()
        mismatched = tuple(name for name in self._AUDIT_FIELDS
                           if getattr(shadow, name) !=
                           getattr(template, name))
        return mismatched, (
            "cached replay trace diverged from its interpreter shadow"
            if mismatched else "")

    def data_memory_report(self) -> DataMemoryReport:
        """The dataflow pass's verdict on the loaded binary's ``LD``/
        ``ST`` traffic — see
        :func:`repro.uarch.dataflow.analyze_data_memory`, computed
        once per loaded binary."""
        if self._data_memory_report is None:
            self._data_memory_report = self._timed(
                analyze_data_memory, self._instructions,
                span="machine.dataflow")
        return self._data_memory_report

    def _binary_verdict(self) -> _BinaryVerdict:
        """The loaded binary's :class:`_BinaryVerdict`, computed once
        per binary: the module-level replay analysis over its dataflow
        report, and the tableau and frame reasons and the reserve-once
        eligibility from one pass over the distinct operation names of
        its bundles in program order."""
        if self._verdict is None:
            instructions = self._instructions
            report = self.data_memory_report()
            tableau = [] if instructions else ["no program loaded"]
            frame = []
            has_fmr = any(isinstance(instruction, Fmr)
                          for instruction in instructions)
            if has_fmr:
                frame.append(
                    "FMR feedback can fork the Clifford sequence on "
                    "per-shot outcomes")
            conditional_measurement = False
            names = dict.fromkeys(
                slot.name for instruction in instructions
                if isinstance(instruction, Bundle)
                for slot in instruction.operations)
            for name in names:
                try:
                    micro_ops = self.microcode.translate_name(name)
                except ConfigurationError:
                    tableau.append(f"operation {name!r} is not translatable")
                    continue
                conditional = [micro_op for micro_op in micro_ops
                               if micro_op.condition
                               is not ExecutionFlag.ALWAYS]
                if conditional:
                    frame.append(
                        f"operation {name!r} executes conditionally (the "
                        f"gate sequence forks on per-shot outcomes)")
                    conditional_measurement |= any(
                        micro_op.is_measurement for micro_op in conditional)
                unitary = self.isa.operations.get(name).unitary
                if unitary is not None and not all(
                        micro_op.is_measurement for micro_op in micro_ops) \
                        and cached_clifford_action(unitary) is None:
                    tableau.append(f"operation {name!r} is not Clifford")
            replay = replay_unsupported_reasons(
                instructions, self.microcode, data_memory_report=report)
            self._verdict = _BinaryVerdict(
                report, replay, tableau, frame,
                not (has_fmr or replay or conditional_measurement))
        return self._verdict

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
        Pauli channel).  The binary-derived verdict is computed once
        per loaded binary; the noise verdict is re-read per call so a
        swapped ``plant.noise`` is honoured immediately.
        """
        reasons = list(self._binary_verdict().tableau)
        if not self.plant.noise.is_pauli_plus_readout:
            reasons.append(
                "noise model has non-Pauli idle decoherence (T1/T2)")
        return reasons

    def _select_plant_backend(self) -> tuple[str, str | None]:
        """Resolve the policy to a backend kind plus the dense reason.

        "auto" picks the tableau whenever the static pass admits it;
        pinning a backend skips the pass (a pinned tableau on a
        non-Clifford program fails at the offending gate, by design).
        The constructor rejects an unknown policy; this check catches
        one assigned to :attr:`plant_backend_policy` later.
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

    def _replay_tree(self, cacheable: bool, build: Callable[[], object]
                     ) -> tuple[object, bool]:
        """The engine state kept for the loaded binary — the replay
        engine's :class:`TimelineTree` or the frame engine's reference
        ``(template, recording)`` — and whether an earlier run built
        it.  The kept value serves when the noise model, config and
        plant backend kind are unchanged since it was built; otherwise
        ``build()`` makes a fresh one, which replaces it (a build that
        raises keeps nothing).  The frozen noise/config dataclasses
        compare by value, so swapping either out rebuilds.  One slot serves both engines: for a given
        binary and key, the engine a run picks is fixed (frame only
        with Pauli gate noise on the tableau, replay only without).

        ``cacheable`` must be False for binaries with a reachable
        ``LD`` that is *not* killed by a same-shot store: data memory
        is the host communication channel and persists across runs, so
        the host may rewrite a loaded address between ``run()`` calls —
        state the cache key cannot see.  Such programs still run fast
        (every shot of one run reads the same values), but what they
        build lives only for the duration of the run.  Killed loads
        only ever observe same-shot data, so spill/reload binaries
        stay cacheable (:attr:`DataMemoryReport.cross_run_cacheable`).
        """
        key = (self.plant.noise, self.config, self.plant.backend_kind)
        if cacheable and self._tree is not None and self._tree_key == key:
            return self._tree, True
        built = build()
        if cacheable:
            self._tree, self._tree_key = built, key
        return built, False

    def clear_replay_cache(self) -> None:
        """Drop the kept engine state (the replay engine's timeline
        tree or the frame engine's reference recording) *and* every
        static verdict derived from the loaded binary.

        Loading different words already drops both, and swapping the
        noise model, config or plant backend rebuilds the kept state
        (regrows the tree, re-records the reference shot); this is
        the explicit hatch for callers that mutate state the machine
        cannot see — e.g. re-seeding experiments that must re-grow
        trees or re-record the frame reference shot, or the serving
        layer's per-point cold-start contract.
        The static verdicts depend on the binary alone, but the
        hatch's contract is *no derived state survives*: the loaded
        binary re-analyzes on its next use too.
        """
        self._forget_binary()

    def engine_stats_snapshot(self) -> EngineStats:
        """A point-in-time copy of the live per-run statistics.

        :attr:`engine_stats` mutates while :meth:`run_iter` streams;
        long sweeps that report the engine mix mid-flight snapshot it
        instead of aliasing the live object.
        """
        return self.engine_stats.snapshot()

    def _grow_tree_shot(self, tree: TimelineTree,
                        outcome_prefix: list[tuple[int, int]]
                        ) -> ShotTrace:
        """One interpreter shot that extends the timeline tree.

        The already-sampled outcome prefix (where the tree walk fell
        off a cached path) is forced onto the measurement unit, so the
        interpreter re-derives exactly the missing branch; measurements
        beyond the prefix sample fresh randomness.  The shot runs with
        the plant's recording open; its measurements, each with its
        pre-collapse probability (the segment-boundary snapshot), are
        inserted into the tree.  A feedback-free binary's tree calls
        this only for its root and internal nodes; it builds its
        terminals from the first such shot's trace
        (:meth:`TimelineTree.sample_cohort`).
        """
        calls = self.plant.recording = []
        if outcome_prefix:
            self.measurement_unit.force_results(outcome_prefix)
        try:
            trace = self.run_shot()
        finally:
            self.plant.recording = None
            self.measurement_unit.clear_forced_results()
        tree.grow([call for call in calls if call.unitary is None], trace)
        return trace

    def run_counts(self, shots: int, use_replay: bool = True) -> ShotCounts:
        """Execute ``shots`` shots and return the streaming aggregate.

        Same run as :meth:`run_iter` (same engine, draws and
        :attr:`engine_stats`), but counts-first: interpreter shots fold
        their traces (:meth:`ShotCounts.add`) and every
        :class:`ShotBatch` folds whole (:meth:`ShotBatch.fold`): a
        replay terminal once with its multiplicity (a cached walk's
        outcomes are its terminal template's own, so the template *is*
        the shot), a growth shot as its trace, and a Pauli-frame chunk
        through its packed reported-outcome columns
        (:meth:`ShotCounts.add_batch`) — no trace is spliced, audited
        runs included.  Memory stays O(qubits + replay-tree size)
        regardless of the shot count.
        """
        counts = ShotCounts()
        with closing(self._shot_items(shots, use_replay)) as items:
            for item in items:
                if isinstance(item, ShotTrace):
                    counts.add(item)
                else:
                    item.fold(counts)
        return counts

    def replay_unsupported_reasons(self) -> list[str]:
        """Every reason the loaded program cannot use shot replay
        (empty if it can) — the static hard-blocker analysis of
        :func:`repro.uarch.replay.replay_unsupported_reasons`, plus two
        machine-level blockers.  When the selected plant backend is the
        stabilizer tableau *and* the noise model carries stochastic
        Pauli gate error, each shot samples a fresh Pauli trajectory —
        state the outcome-keyed tree cannot key on — so such runs stay
        off the replay tree (the Pauli-frame batch or the interpreter,
        which the tableau still accelerates, serves them).  With zero
        gate error the tableau is deterministic given the outcome
        history and both fast paths compound.  Queued mock results
        (CFC verification) are the other: consecutive shots read
        different fabricated bits, and these short experiments run on
        the interpreter."""
        kind, _ = self._select_plant_backend()
        return self._binary_verdict().replay + self._run_blockers(kind)

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
        verdict = self._binary_verdict()
        return verdict.replay + verdict.frame + self._run_blockers(None)

    def _frame_shots(self, shots: int, stats: EngineStats,
                     report: DataMemoryReport) -> Iterator:
        """Serve ``shots`` shots through the Pauli-frame batched
        engine (see :mod:`repro.quantum.pauli_frame`).

        The engine needs one reference shot of the loaded binary
        (:meth:`_frame_reference`): its trace is the frozen timeline
        template, its :class:`FrameRecording` the Clifford sequence,
        every gate-error site, the measurement structure and the fault
        table built from them when the recording is derived:
        the raw outcome rows each elementary fault and each random
        measurement's coin flips.  The first run records it and keeps
        it, table included, for the loaded binary in the slot
        :meth:`_replay_tree` manages, so a later run under the same
        noise model, config and backend kind skips the reference shot
        and builds no table (``frame_reference_shots == 0``,
        ``tree_reused``).  A binary whose loads may read host-written
        memory (not :attr:`DataMemoryReport.cross_run_cacheable`)
        records afresh every run.  Each chunk's outcomes are then
        sampled from the table with no step walk
        (:func:`propagate_frames`, called once per chunk); each chunk is
        counted into ``stats`` and yielded as one :class:`ShotBatch`:
        one group of every shot on the reference template, with packed
        ``(measurements, words)`` raw and reported outcome columns.  A
        failed reference shot ends the run with its error and keeps
        nothing.
        """
        stats.engine = "frame"
        (template, recording), stats.tree_reused = self._replay_tree(
            report.cross_run_cacheable,
            lambda: self._frame_reference(stats))
        readout = self.plant.noise.readout
        for first in range(0, shots, _CHUNK_SHOTS):
            chunk = min(shots - first, _CHUNK_SHOTS)
            raw, reported = self._timed(
                propagate_frames, recording, chunk,
                self.plant.rng, readout, span="engine.frame.batch",
                histogram="engine.frame.batch.time_ns", shots=chunk)
            stats.shots_total += chunk
            stats.frame_batched += chunk
            yield ShotBatch(chunk, [ShotGroup(template, chunk)],
                            raw, reported)

    def _frame_reference(self, stats: EngineStats
                         ) -> tuple[ShotTrace, FrameRecording]:
        """Run the frame engine's reference shot: one interpreter shot
        under the plant's noise with gate error zeroed (the noise is
        restored in a ``finally``), with the plant's recording open.
        Returns its trace and the :class:`FrameRecording` derived from
        the recorded calls under the real noise model
        (:func:`frame_recording`).  A failed shot raises its own
        structured error, as a failed growth shot does.  The recording
        holds every measurement the plant collapsed and the trace every
        result that arrived: a frame-eligible binary has no conditional
        micro-op or mock, and :meth:`run_shot` drains every result
        event, so the two always agree."""
        plant = self.plant
        noise = plant.noise
        calls = plant.recording = []
        plant.noise = replace(noise, gate_error=GateErrorModel(0.0, 0.0))
        try:
            template = self._timed(self.run_shot,
                                   span="engine.frame.reference_shot")
        finally:
            plant.recording = None
            plant.noise = noise
        stats.frame_reference_shots += 1
        return template, frame_recording(calls, noise,
                                         plant.topology.qubits)

    # ------------------------------------------------------------------
    # Classical pipeline
    # ------------------------------------------------------------------
    def _execute(self, instruction: Instruction) -> None:
        """Execute one instruction; updates PC and the classical clock.

        Dispatch is one lookup of the instruction's exact type in the
        class handler table (the decoder builds no subclasses).
        """
        next_pc = self._DISPATCH[type(instruction)](self, instruction)
        self._classical_time_ns += self._config.classical_cycle_ns
        self._pc = self._pc + 1 if next_pc is None else next_pc

    # Handlers return the next PC, or None for straight-line flow.
    def _exec_nop(self, instruction: Nop) -> None:
        return None

    def _exec_cmp(self, instruction: Cmp) -> None:
        self.comparison_flags.update(self.gprs.read(instruction.rs),
                                     self.gprs.read(instruction.rt))
        return None

    def _exec_br(self, instruction: Br) -> int | None:
        if self.comparison_flags.test(instruction.condition):
            config = self._config
            self._classical_time_ns += (config.branch_taken_penalty_cycles *
                                        config.classical_cycle_ns)
            return self._pc + instruction.target
        return None

    def _exec_fbr(self, instruction: Fbr) -> None:
        value = int(self.comparison_flags.test(instruction.condition))
        self.gprs.write(instruction.rd, value)
        return None

    def _exec_alu(self, instruction: Ldi | Ldui | Not | LogicalOp | ArithOp
                  ) -> None:
        read = self.gprs.read
        self.gprs.write(instruction.rd, instruction.evaluate(
            *[read(register) for register in instruction.sources]))
        return None

    def _exec_ld(self, instruction: Ld) -> None:
        address = instruction.address(self.gprs.read(instruction.rt))
        self.gprs.write(instruction.rd, self.memory.load(address))
        return None

    def _exec_st(self, instruction: St) -> None:
        address = instruction.address(self.gprs.read(instruction.rt))
        self.memory.store(address, self.gprs.read(instruction.rs))
        return None

    def _exec_fmr(self, instruction: Fmr) -> None:
        self._execute_fmr(instruction)
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
    #: loop before dispatch).
    _DISPATCH: dict[type, Callable] = {
        Nop: _exec_nop,
        Cmp: _exec_cmp,
        Br: _exec_br,
        Fbr: _exec_fbr,
        Ldi: _exec_alu,
        Ldui: _exec_alu,
        Ld: _exec_ld,
        St: _exec_st,
        Fmr: _exec_fmr,
        LogicalOp: _exec_alu,
        Not: _exec_alu,
        ArithOp: _exec_alu,
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
        config = self._config
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
        events = self._events
        sequence = self._event_sequence
        for queue_key, device_op, steps in self._planned_routes(point, due):
            queue = queues.get(queue_key)
            if queue is None:
                queue = queues[queue_key] = EventQueue(
                    config.event_queue_depth)
            # Per-device event-queue backpressure (Fig. 9's FIFOs).
            while queue.full and events:
                event = heapq.heappop(events)
                self._classical_time_ns = max(self._classical_time_ns,
                                              event[0])
                self._process_event(event)
            queue.push(device_op)
            heapq.heappush(events, (due, _TRIGGER_PRIORITY, next(sequence),
                                    "trigger", (queue, device_op, steps)))
            self._outstanding_triggers += 1

    def _planned_routes(self, point: ReservedPoint, due: float) -> tuple:
        """The distributor's routing of ``point``, triggered at ``due``:
        each device operation with its plain ``(kind value, index)``
        queue key and its trigger steps (:meth:`_trigger_steps`),
        cached per cycle, trigger time and micro-op objects (shared
        across shots by the decode cache), dropped by :meth:`load` and
        by a new :attr:`config`, and bounded by
        ``ROUTE_CACHE_CAPACITY``."""
        micro_ops = point.micro_ops
        key = (point.cycle, due, *map(id, micro_ops))
        cached = self._trigger_plans.get(key)
        if cached is None:
            if len(self._trigger_plans) >= ROUTE_CACHE_CAPACITY:
                self._trigger_plans.clear()
            planned = tuple(
                ((device_op.device.kind.value, device_op.device.index),
                 device_op, self._trigger_steps(device_op, due))
                for device_op in self.distributor.distribute(point.cycle,
                                                             micro_ops))
            cached = self._trigger_plans[key] = (tuple(micro_ops), planned)
        return cached[1]

    def _trigger_steps(self, device_op: DeviceOperation,
                       due: float) -> tuple[_Step, ...]:
        """Resolve each micro-op of ``device_op``, triggered at
        ``due``, into its :class:`_Step`.  A pair half without pair
        info raises here, whether or not a shot releases it."""
        config = self._config
        cycle = device_op.cycle
        output_ns = due + config.fce_evaluation_ns + config.codeword_output_ns
        steps = []
        for entry in device_op.micro_ops:
            micro_op = entry.micro_op
            name = micro_op.operation
            flag = micro_op.condition
            qubits = targets = (entry.qubit,)
            unitary = None
            if micro_op.is_measurement:
                kind = _MEASURE
            else:
                if micro_op.role is MicroOpRole.SINGLE:
                    kind = _SINGLE
                else:
                    kind = (_SOURCE_HALF if micro_op.role is MicroOpRole.SOURCE
                            else _TARGET_HALF)
                    targets = entry.pair
                    if targets is None:
                        raise RuntimeFault(f"{name} micro-op lacks pair info")
                if self.pulses.operations.get(name).unitary is not None:
                    unitary = self.pulses.unitary_for(name)
            executed, cancelled = (TriggerRecord(
                name, qubits, cycle, due, output_ns, passed, flag.name)
                for passed in (True, False))
            steps.append(_Step(
                kind, due, qubit=entry.qubit,
                flag=None if flag is ExecutionFlag.ALWAYS else flag,
                executed=executed, cancelled=cancelled, name=name,
                unitary=unitary, targets=targets,
                duration_ns=micro_op.duration_cycles * config.quantum_cycle_ns,
                key=(cycle, entry.pair)))
        return tuple(steps)

    # ------------------------------------------------------------------
    # Deterministic-domain event machinery
    # ------------------------------------------------------------------
    def _push_event(self, time_ns: float, kind: str, payload) -> None:
        heapq.heappush(self._events, (
            time_ns, _EVENT_PRIORITY[kind], next(self._event_sequence),
            kind, payload))

    def _drain_all_events(self) -> None:
        events = self._events
        while events:
            self._process_event(heapq.heappop(events))

    def _process_event(self, event: tuple) -> None:
        """Process one event: a ``qreg`` event writes its Q register;
        any other runs its steps (:meth:`_run_steps`, recorded into an
        open :attr:`_stream`) and pushes what follows them."""
        time_ns, _, _, kind, payload = event
        measured = self._measured
        if kind == "qreg":
            pending = measured[payload]
            self.q_registers.register(pending.qubit).on_result(
                pending.reported_result)
            self._last_qreg_write_ns[pending.qubit] = time_ns
            return
        if kind == "trigger":
            self._outstanding_triggers -= 1
            queue, device_op, steps = payload
            # The timing controller consumes the device's event queue in
            # FIFO order; triggers are chronological per device, so the
            # popped entry must be the one due now.
            if queue.pop() is not device_op:
                raise RuntimeFault(
                    f"event queue of {device_op.device} delivered "
                    f"operations out of order")
        else:
            steps = (payload,)
        started = len(measured)
        self._run_steps(steps)
        if self._stream is not None:
            self._stream.extend(steps)
        if kind == "trigger":
            for index in range(started, len(measured)):
                arrival_ns = measured[index].arrival_ns
                self._push_event(arrival_ns, "result",
                                 _Step(_RESULT, arrival_ns, index))
        elif kind == "result":
            # Execution flags refresh after ingest + combinatorial
            # update; the Q register write crosses into the classical
            # domain.
            config = self._config
            flag_ns = time_ns + config.result_ingest_ns + config.flag_update_ns
            self._push_event(flag_ns, "flag",
                             _Step(_FLAG, flag_ns, payload.index))
            self._push_event(
                time_ns + config.result_ingest_ns + config.qreg_write_ns,
                "qreg", payload.index)

    def _run_scheduled(self, program: ShotProgram) -> ShotTrace:
        """A scheduled shot: run ``program``'s steps against the live
        plant in one :meth:`_run_steps` call, testing each flag live,
        so every plant call, RNG draw and trace field is the
        pipeline's.  Only the trigger-phase state is reset: every shot
        of an FMR-free binary leaves the reserve-phase state the first
        one did, and writes no Q register (``FMR`` reads them)."""
        self.plant.reset_shot()
        self.execution_flags.reset()
        self._pending_pairs = {}
        self._measured = []
        first = program.first
        trace = self._trace = replace(first, triggers=[], results=[],
                                      slips=list(first.slips))
        self._run_steps(program.steps)
        return trace

    # ------------------------------------------------------------------
    # Trigger phase: FCE + pulse generation + measurement start
    # ------------------------------------------------------------------
    def _run_steps(self, steps) -> None:
        """Run trigger-phase steps in order, the one release loop: a
        result step records its arrival, a flag step updates the
        execution flags, and a micro-op step is fast conditional
        execution — test its flag, record the trigger, and start a
        released measurement (appended to :attr:`_measured`), join a
        released pair half or play a released gate (a pair's when both
        halves are in)."""
        pending_pairs = self._pending_pairs
        measured = self._measured
        record_trigger = self._trace.triggers.append
        record_result = self._trace.results.append
        test = self.execution_flags.test
        on_result = self.execution_flags.on_result
        start_measurement = self.measurement_unit.start_measurement
        apply_unitary = self.plant.apply_unitary
        for (kind, time_ns, index, qubit, flag, executed, cancelled, name,
             unitary, targets, duration_ns, key) in steps:
            if kind == _RESULT:
                pending = measured[index]
                record_result(ResultRecord(
                    pending.qubit, pending.raw_result,
                    pending.reported_result, pending.measure_start_ns,
                    time_ns))
            elif kind == _FLAG:
                pending = measured[index]
                on_result(pending.qubit, pending.reported_result)
            elif flag is not None and not test(qubit, flag):
                record_trigger(cancelled)
            elif kind == _MEASURE:
                record_trigger(executed)
                measured.append(start_measurement(qubit, time_ns))
            else:
                record_trigger(executed)
                if kind != _SINGLE:
                    halves = pending_pairs.pop(key, 0) | kind
                    if halves != 3:
                        pending_pairs[key] = halves
                        continue
                if unitary is None:
                    unitary = self.pulses.unitary_for(name)  # raises
                apply_unitary(name, unitary, targets, time_ns, duration_ns)
