"""Experiment runner: circuit -> compile -> assemble -> execute.

Glues the full stack together the way the paper's toolflow does
(Section 2.1): the OpenQL-like backend schedules the circuit and emits
eQASM, the assembler produces the binary, the binary is loaded into the
QuMA v2 instruction memory and executed against the plant for N shots.
"""

from __future__ import annotations

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

        ``audit_fraction`` turns on self-verifying replay: cached
        shots earn that much audit credit each, and a walked tree
        terminal is shadow-run on the interpreter and compared
        bit-for-bit whenever the credit crosses 1 (every terminal at
        1.0) — see :meth:`repro.uarch.machine.QuMAv2._replay_shots`.

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
                        final_wait_cycles: int = 50) -> AssembledProgram:
        """Schedule + codegen + assemble a circuit (cached).

        ``interval_cycles`` forces a fixed gate-start interval (the
        Fig. 12 knob); None uses ASAP scheduling.  ``final_wait_cycles``
        keeps the timeline open past the last measurement, matching the
        paper's trailing QWAIT.  Identical circuit/parameter
        combinations return the cached :class:`AssembledProgram`
        (compilation is deterministic and the result is never mutated).
        """
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

    @property
    def last_engine_stats(self) -> EngineStats:
        """Engine statistics of the most recent ``run*`` call: shots
        via interpreter vs replay, segment-cache misses, fallback
        reasons (see :class:`~repro.uarch.replay.EngineStats`).  The
        object is *live* while a ``run_iter`` stream is being consumed
        — use :meth:`engine_stats_snapshot` for a stable copy."""
        return self.machine.engine_stats

    def engine_stats_snapshot(self) -> EngineStats:
        """A point-in-time copy of the running engine statistics.

        Long sweeps consuming :meth:`run_iter` can report the engine
        mix mid-flight (shots so far, interpreter vs replay split,
        segment-cache misses) without aliasing the live, still-mutating
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
        """Drop the machine's kept timeline tree or frame reference
        recording and the static verdicts on its loaded binary (see
        :meth:`repro.uarch.machine.QuMAv2.clear_replay_cache`)."""
        self.machine.clear_replay_cache()

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

