"""Experiment runner: circuit -> compile -> assemble -> execute.

Glues the full stack together the way the paper's toolflow does
(Section 2.1): the OpenQL-like backend schedules the circuit and emits
eQASM, the assembler produces the binary, the binary is loaded into the
QuMA v2 instruction memory and executed against the plant for N shots.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from typing import Iterator

from repro.compiler.codegen import EQASMCodeGenerator
from repro.compiler.ir import Circuit
from repro.compiler.scheduler import (
    schedule_asap,
    schedule_with_interval,
)
from repro.core.assembler import AssembledProgram, Assembler
from repro.core.errors import (
    BackendFaultError,
    ConfigurationError,
    GuardFault,
    InvalidRequestError,
    PlantError,
    QueueOverflowError,
    ResourceError,
    ShotTimeoutError,
)
from repro.core.isa import EQASMInstantiation, two_qubit_instantiation
from repro.quantum.noise import NoiseModel
from repro.quantum.plant import QuantumPlant
from repro.uarch.config import UarchConfig
from repro.uarch.machine import QuMAv2
from repro.uarch.replay import EngineStats
from repro.uarch.trace import ShotCounts, ShotTrace

#: Compiled-program cache bound (FIFO eviction); sweeps rarely cycle
#: through more distinct circuit skeletons than this.
_PROGRAM_CACHE_CAPACITY = 128


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff policy for :meth:`ExperimentSetup.run_resilient`.

    ``max_attempts`` bounds the total executions (first try included).
    ``backoff_s`` is the *base* delay of a capped exponential backoff:
    retry ``n`` waits ``backoff_s * backoff_multiplier**(n-1)``
    seconds, clamped to ``backoff_cap_s``, with a deterministic
    ``jitter`` fraction derived from ``seed`` (so two policies with
    the same seed sleep identically — retries stay reproducible, while
    distinct seeds decorrelate a fleet of workers hammering a shared
    resource).  The default base of zero keeps the historical
    zero-sleep behaviour: the simulator's failures are deterministic,
    so only sweeps driving external resources ask for real backoff.
    """

    max_attempts: int = 3
    backoff_s: float = 0.0
    backoff_cap_s: float = 30.0
    backoff_multiplier: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if self.backoff_s < 0:
            raise ConfigurationError("backoff_s must be non-negative")
        if self.backoff_cap_s < 0:
            raise ConfigurationError(
                "backoff_cap_s must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError(
                "backoff_multiplier must be at least 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must lie in [0, 1]")

    def delay_for(self, attempt: int) -> float:
        """Deterministic sleep before retrying after failed attempt
        ``attempt`` (1-based).

        Zero whenever ``backoff_s`` is zero.  Otherwise the capped
        exponential above, scaled by ``1 + jitter * u`` where ``u`` in
        ``[-1, 1)`` is a pure function of ``(seed, attempt)`` — no
        global RNG state is consumed, so the schedule is reproducible
        and side-effect free.
        """
        if self.backoff_s <= 0.0:
            return 0.0
        delay = self.backoff_s * self.backoff_multiplier ** (attempt - 1)
        delay = min(delay, self.backoff_cap_s)
        if self.jitter:
            digest = hashlib.sha256(
                f"eqasm-backoff:{self.seed}:{attempt}".encode()).digest()
            unit = int.from_bytes(digest[:8], "big") / 2.0 ** 64
            delay *= 1.0 + self.jitter * (2.0 * unit - 1.0)
        return min(delay, self.backoff_cap_s)


@dataclass
class ExperimentSetup:
    """A ready-to-run machine + assembler pair for one instantiation."""

    isa: EQASMInstantiation
    machine: QuMAv2
    assembler: Assembler
    #: schedule+codegen+assemble results keyed by circuit signature, so
    #: repeated sweeps (Rabi amplitudes, RB lengths, DSE configs) stop
    #: re-compiling identical skeletons.
    _program_cache: OrderedDict = field(default_factory=OrderedDict,
                                        repr=False)

    @classmethod
    def create(cls, isa: EQASMInstantiation | None = None,
               noise: NoiseModel | None = None,
               seed: int = 0,
               config: UarchConfig | None = None,
               plant_backend: str = "auto",
               audit_fraction: float = 0.0,
               observability=None) -> "ExperimentSetup":
        """Build the Section 5 experimental setup.

        Defaults: the two-qubit instantiation, the calibrated noise
        model, and the paper-like microarchitecture configuration.

        ``plant_backend`` sets the machine's plant-backend policy:
        ``"auto"`` (default) statically checks each loaded binary and
        the noise model, running Clifford programs under
        Pauli/readout-only noise on the polynomial-cost stabilizer
        tableau and **falling back to the dense density matrix for
        anything non-Clifford** (Rabi pulses, T gates, T1/T2
        decoherence); ``"dense"`` or ``"stabilizer"`` pin a backend.
        The choice is reported per run via :attr:`last_plant_backend`.

        ``audit_fraction`` turns on self-verifying replay: that
        fraction of replayed (cache-hit) shots is shadow-run on the
        interpreter and compared bit-for-bit — see
        :meth:`repro.uarch.machine.QuMAv2.run_iter`.

        ``observability`` attaches a :class:`repro.obs.Observability`
        handle to the machine (and, through it, the plant): run-phase
        spans, engine timing histograms and degradation/fault trace
        events.  None (default) disables all instrumentation.
        """
        isa = isa or two_qubit_instantiation()
        plant = QuantumPlant(isa.topology,
                             noise=noise if noise is not None
                             else NoiseModel(),
                             rng=np.random.default_rng(seed))
        machine = QuMAv2(isa, plant, config=config,
                         plant_backend=plant_backend,
                         audit_fraction=audit_fraction,
                         observability=observability)
        return cls(isa=isa, machine=machine, assembler=Assembler(isa))

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile_circuit(self, circuit: Circuit,
                        interval_cycles: int | None = None,
                        initialize_cycles: int = 10000,
                        final_wait_cycles: int = 50,
                        use_cache: bool = True) -> AssembledProgram:
        """Schedule + codegen + assemble a circuit (cached).

        ``interval_cycles`` forces a fixed gate-start interval (the
        Fig. 12 knob); None uses ASAP scheduling.  ``final_wait_cycles``
        keeps the timeline open past the last measurement, matching the
        paper's trailing QWAIT.  Identical circuit/parameter
        combinations return the cached :class:`AssembledProgram`
        (compilation is deterministic and the result is never mutated);
        pass ``use_cache=False`` to force a fresh compile.
        """
        key = None
        if use_cache:
            key = (circuit.name, circuit.num_qubits,
                   tuple((op.name, op.qubits) for op in circuit.operations),
                   interval_cycles, initialize_cycles, final_wait_cycles)
            cached = self._program_cache.get(key)
            if cached is not None:
                self._program_cache.move_to_end(key)
                return cached
        if interval_cycles is None:
            schedule = schedule_asap(circuit, self.isa.operations)
        else:
            schedule = schedule_with_interval(circuit, self.isa.operations,
                                              interval_cycles)
        generator = EQASMCodeGenerator(self.isa)
        program = generator.generate(schedule,
                                     initialize_cycles=initialize_cycles,
                                     final_wait_cycles=final_wait_cycles)
        assembled = self.assembler.assemble_program(program)
        if key is not None:
            self._program_cache[key] = assembled
            while len(self._program_cache) > _PROGRAM_CACHE_CAPACITY:
                self._program_cache.popitem(last=False)
        return assembled

    def assemble_text(self, text: str) -> AssembledProgram:
        """Assemble hand-written eQASM (the paper's listing figures)."""
        return self.assembler.assemble_text(text)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, assembled: AssembledProgram,
            shots: int) -> list[ShotTrace]:
        """Load the binary and run it for N shots."""
        self.machine.load(assembled)
        return self.machine.run(shots)

    def run_iter(self, assembled: AssembledProgram,
                 shots: int) -> Iterator[ShotTrace]:
        """Load the binary and lazily yield N shot traces.

        The streaming entry point for per-shot consumers (the loading
        happens eagerly; the shots run on demand).  Engine selection is
        the machine's — branch-resolved replay wherever possible — and
        per-run statistics are available afterwards through
        :attr:`last_engine_stats`.
        """
        self.machine.load(assembled)
        return self.machine.run_iter(shots)

    def run_counts(self, assembled: AssembledProgram,
                   shots: int) -> ShotCounts:
        """Load the binary and stream N shots into an aggregate.

        Unlike :meth:`run`, memory does not grow with the shot count:
        the machine folds each shot into a
        :class:`~repro.uarch.trace.ShotCounts` as it is produced,
        without building a trace for cached replay walks or Pauli-frame
        chunks (see :meth:`repro.uarch.machine.QuMAv2.run_counts`).
        """
        self.machine.load(assembled)
        return self.machine.run_counts(shots)

    # ------------------------------------------------------------------
    # Resilient execution (degradation ladder)
    # ------------------------------------------------------------------
    def run_resilient(self, assembled: AssembledProgram, shots: int,
                      policy: RetryPolicy | None = None
                      ) -> list[ShotTrace]:
        """Run N shots with graceful degradation instead of aborting.

        Structured runtime failures walk a degradation ladder —
        tableau -> dense -> interpreter-only -> abort — one rung per
        retry, bounded by ``policy.max_attempts``:

        * :class:`~repro.core.errors.ResourceError` (a state too large
          for the memory budget) retries with the polynomial-memory
          stabilizer backend pinned;
        * :class:`~repro.core.errors.BackendFaultError` /
          :class:`~repro.core.errors.PlantError` on the tableau retries
          on the dense backend when it fits, otherwise (and for dense
          faults) retries interpreter-only so a poisoned replay tree
          cannot serve stale shots;
        * :class:`~repro.core.errors.QueueOverflowError` /
          :class:`~repro.core.errors.ShotTimeoutError` retry
          interpreter-only once;
        * anything else — or a fall off the ladder — re-raises.

        Every rung taken is recorded in the (successful) run's
        :attr:`EngineStats.degradations`; the machine's configured
        plant-backend policy is restored afterwards regardless of
        outcome.
        """
        policy = policy or RetryPolicy()
        machine = self.machine
        original_policy = machine.plant_backend_policy
        degradations: list[str] = []
        use_replay = True
        try:
            for attempt in range(policy.max_attempts):
                try:
                    machine.load(assembled)
                    traces = list(machine.run_iter(
                        shots, use_replay=use_replay))
                except (GuardFault, PlantError) as error:
                    if attempt + 1 >= policy.max_attempts:
                        raise
                    rung = self._next_rung(error, use_replay)
                    if rung is None:
                        raise
                    step, use_replay = rung
                    delay = policy.delay_for(attempt + 1)
                    degradations.append(
                        f"attempt {attempt + 1}: "
                        f"{type(error).__name__} -> {step}"
                        + (f" (backoff {delay:.3f}s)" if delay else ""))
                    obs = machine.observability
                    if obs is not None:
                        # Each ladder rung is a structured trace event
                        # carrying the triggering guard fault's
                        # machine-readable context, so ladder walks are
                        # visible in exported traces, not only in
                        # EngineStats.degradations.
                        obs.event("runner.degradation",
                                  attempt=attempt + 1,
                                  error=type(error).__name__,
                                  rung=step,
                                  use_replay=use_replay,
                                  backoff_s=delay,
                                  context=getattr(error, "context", {}))
                    if delay:
                        time.sleep(delay)
                    continue
                stats = machine.engine_stats
                stats.degradations[:0] = degradations
                return traces
            raise AssertionError("unreachable: ladder exits by "
                                 "return or raise")  # pragma: no cover
        finally:
            machine.plant_backend_policy = original_policy

    def _next_rung(self, error: Exception,
                   use_replay: bool) -> tuple[str, bool] | None:
        """The next degradation step for a failed attempt, or None to
        abort (re-raise).  Returns ``(description, use_replay)``."""
        machine = self.machine
        if isinstance(error, ResourceError):
            if machine.plant_backend_policy != "stabilizer":
                machine.plant_backend_policy = "stabilizer"
                return ("retry on the stabilizer backend "
                        "(polynomial memory)", use_replay)
            return None  # the tableau itself does not fit: abort
        if isinstance(error, (QueueOverflowError, ShotTimeoutError)):
            if use_replay:
                return "retry interpreter-only", False
            return None
        if isinstance(error, (BackendFaultError, PlantError)):
            faulted_backend = getattr(error, "context", {}).get(
                "backend", machine.last_plant_backend)
            if faulted_backend == "stabilizer":
                try:
                    machine.plant.check_admission("dense")
                except ResourceError:
                    if use_replay:
                        return ("dense does not fit; retry "
                                "interpreter-only on the tableau",
                                False)
                    return None
                machine.plant_backend_policy = "dense"
                return "retry on the dense backend", use_replay
            if use_replay:
                return "retry interpreter-only", False
            return None
        return None

    @property
    def last_engine_stats(self) -> EngineStats:
        """Engine statistics of the most recent ``run*`` call: shots
        via interpreter vs replay, segment-cache hits/misses, fallback
        reasons (see :class:`~repro.uarch.replay.EngineStats`).  The
        object is *live* while a ``run_iter`` stream is being consumed
        — use :meth:`engine_stats_snapshot` for a stable copy."""
        return self.machine.engine_stats

    def engine_stats_snapshot(self) -> EngineStats:
        """A point-in-time copy of the running engine statistics.

        Long sweeps consuming :meth:`run_iter` can report the engine
        mix mid-flight (shots so far, interpreter vs replay split,
        segment-cache hits) without aliasing the live, still-mutating
        stats object."""
        return self.machine.engine_stats_snapshot()

    @property
    def last_plant_backend(self) -> str | None:
        """Plant backend of the most recent ``run*`` call —
        "stabilizer" when the static pass proved the binary Clifford
        and the noise Pauli/readout-only, "dense" otherwise (the
        non-Clifford fallback; the reason is in
        ``machine.plant_backend_reason``)."""
        return self.machine.last_plant_backend

    def clear_replay_cache(self) -> None:
        """Drop the machine's cross-run timeline-tree cache (see
        :meth:`repro.uarch.machine.QuMAv2.clear_replay_cache`)."""
        self.machine.clear_replay_cache()

    def run_circuit(self, circuit: Circuit, shots: int,
                    interval_cycles: int | None = None,
                    initialize_cycles: int = 10000,
                    final_wait_cycles: int = 50) -> list[ShotTrace]:
        """Compile and run a circuit in one call."""
        assembled = self.compile_circuit(
            circuit, interval_cycles=interval_cycles,
            initialize_cycles=initialize_cycles,
            final_wait_cycles=final_wait_cycles)
        return self.run(assembled, shots)

    def run_circuit_iter(self, circuit: Circuit, shots: int,
                         interval_cycles: int | None = None,
                         initialize_cycles: int = 10000,
                         final_wait_cycles: int = 50
                         ) -> Iterator[ShotTrace]:
        """Compile a circuit and lazily yield its shot traces."""
        assembled = self.compile_circuit(
            circuit, interval_cycles=interval_cycles,
            initialize_cycles=initialize_cycles,
            final_wait_cycles=final_wait_cycles)
        return self.run_iter(assembled, shots)

    def run_circuit_counts(self, circuit: Circuit, shots: int,
                           interval_cycles: int | None = None,
                           initialize_cycles: int = 10000,
                           final_wait_cycles: int = 50) -> ShotCounts:
        """Compile and run a circuit, aggregating instead of tracing."""
        assembled = self.compile_circuit(
            circuit, interval_cycles=interval_cycles,
            initialize_cycles=initialize_cycles,
            final_wait_cycles=final_wait_cycles)
        return self.run_counts(assembled, shots)

    def survival_probability(self, circuit: Circuit,
                             qubit: int,
                             interval_cycles: int | None = None
                             ) -> float:
        """Exact P(qubit = 0) at the end of a measurement-free circuit.

        Runs a single shot and reads the plant's density matrix — the
        sampling-noise-free observable used by the RB fits (the machine
        still executes the genuine binary; only the final readout is
        replaced by the exact population).
        """
        assembled = self.compile_circuit(circuit,
                                         interval_cycles=interval_cycles,
                                         final_wait_cycles=0)
        self.machine.load(assembled)
        self.machine.run_shot()
        return 1.0 - self.machine.plant.probability_one(qubit)


def excited_fraction(traces: list[ShotTrace], qubit: int) -> float:
    """Fraction of shots whose last result on ``qubit`` was 1."""
    results = [trace.last_result(qubit) for trace in traces]
    results = [r for r in results if r is not None]
    if not results:
        raise InvalidRequestError(
            f"no measurement results for qubit {qubit}")
    return sum(results) / len(results)


def ground_fraction(traces: list[ShotTrace], qubit: int) -> float:
    """Fraction of shots whose last result on ``qubit`` was 0."""
    return 1.0 - excited_fraction(traces, qubit)


def outcome_counts(traces: list[ShotTrace], qubit_a: int,
                   qubit_b: int) -> dict[int, int]:
    """Two-bit outcome histogram over shots (qubit_a = MSB)."""
    counts: dict[int, int] = {}
    for trace in traces:
        a = trace.last_result(qubit_a)
        b = trace.last_result(qubit_b)
        if a is None or b is None:
            continue
        key = (a << 1) | b
        counts[key] = counts.get(key, 0) + 1
    return counts
