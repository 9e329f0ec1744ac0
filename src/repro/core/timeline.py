"""Reserve-phase timing semantics (Section 3.1).

eQASM's queue-based timing control splits execution into a *reserve*
phase (non-deterministic timing domain: instructions construct a
timeline of timing points with associated operations) and a *trigger*
phase (deterministic domain: a timer fires each point's operations).

:class:`TimelineBuilder` is the pure architectural model of the reserve
phase.  It is the single source of truth for the timing rules:

* ``QWAIT n`` / ``QWAITR Rs`` — a new timing point ``n`` cycles after
  the *last generated* timing point (``n = 0`` re-generates the same
  point);
* a bundle's PI is exactly ``QWAIT PI`` merged into the bundle
  (default 1 when unspecified);
* all operations of bundles mapping to one timing point start together;
* ``SMIS``/``SMIT`` update target registers, with the register read
  happening when a bundle references it (so later SMIS writes do not
  retroactively change earlier bundles);
* two operations touching the same qubit at one timing point are an
  error — the quantum processor stops (Section 4.3).

The microarchitecture (:mod:`repro.uarch`) implements the same rules
with queues and pipelines; its tests cross-check against this model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.errors import AssemblyError, OperationConflictError
from repro.core.instructions import (
    Bundle,
    Instruction,
    QWait,
    QWaitR,
    SMIS,
    SMIT,
)
from repro.core.isa import EQASMInstantiation
from repro.core.operations import OperationKind, QuantumOperation


@dataclass(frozen=True)
class TimedOperation:
    """One quantum operation resolved onto physical qubits at a point."""

    name: str
    operation: QuantumOperation
    qubits: tuple[int, ...] = ()
    pairs: tuple[tuple[int, int], ...] = ()

    def touched_qubits(self) -> tuple[int, ...]:
        """Every physical qubit this operation drives."""
        touched = list(self.qubits)
        for source, target in self.pairs:
            touched.extend((source, target))
        return tuple(touched)


@dataclass
class TimingPoint:
    """A cycle on the timeline with the operations starting there."""

    cycle: int
    operations: list[TimedOperation] = field(default_factory=list)


@dataclass
class Timeline:
    """The constructed timeline: ordered timing points."""

    points: list[TimingPoint] = field(default_factory=list)

    def all_operations(self) -> list[tuple[int, TimedOperation]]:
        """Flat (cycle, operation) list in time order."""
        out = []
        for point in sorted(self.points, key=lambda p: p.cycle):
            for op in point.operations:
                out.append((point.cycle, op))
        return out


class TimelineBuilder:
    """Architectural interpreter of the reserve phase.

    ``gpr_reader`` supplies register values for ``QWAITR`` (the pure
    model has no classical pipeline); it defaults to a reader that
    raises, so programs using QWAITR must provide one.
    """

    def __init__(self, isa: EQASMInstantiation,
                 gpr_reader: Callable[[int], int] | None = None):
        self.isa = isa
        self._gpr_reader = gpr_reader
        self._s_registers: dict[int, int] = {}
        self._t_registers: dict[int, int] = {}
        self._current_cycle = 0
        self._points: dict[int, TimingPoint] = {}
        self._busy_until: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Instruction feed
    # ------------------------------------------------------------------
    def feed(self, instruction: Instruction) -> None:
        """Process one instruction in program order.

        Classical instructions other than QWAITR's register read do not
        interact with the timeline and are ignored here.
        """
        if isinstance(instruction, QWait):
            self._advance(instruction.cycles)
        elif isinstance(instruction, QWaitR):
            if self._gpr_reader is None:
                raise AssemblyError(
                    "QWAITR needs a GPR reader in the timeline model")
            value = self._gpr_reader(instruction.rs)
            if value < 0:
                raise AssemblyError(f"QWAITR read negative value {value}")
            self._advance(value)
        elif isinstance(instruction, SMIS):
            self._s_registers[instruction.sd] = self.isa.qubit_mask(
                instruction.qubits)
        elif isinstance(instruction, SMIT):
            mask = self.isa.pair_mask(instruction.pairs)
            self.isa.topology.validate_pair_mask(mask)
            self._t_registers[instruction.td] = mask
        elif isinstance(instruction, Bundle):
            self._feed_bundle(instruction)

    def feed_program(self, instructions) -> "TimelineBuilder":
        """Feed a sequence of instructions; returns self for chaining."""
        for instruction in instructions:
            self.feed(instruction)
        return self

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _advance(self, cycles: int) -> None:
        if cycles < 0:
            raise AssemblyError("cannot wait a negative number of cycles")
        self._current_cycle += cycles

    def _feed_bundle(self, bundle: Bundle) -> None:
        self._advance(bundle.pi)
        cycle = self._current_cycle
        point = self._points.setdefault(cycle, TimingPoint(cycle=cycle))
        for slot in bundle.operations:
            operation = self.isa.operations.get(slot.name)
            if operation.kind is OperationKind.NOP:
                continue
            timed = self._resolve_slot(slot.name, operation, slot.register)
            self._check_conflicts(point, timed)
            point.operations.append(timed)
            for qubit in timed.touched_qubits():
                busy_until = cycle + operation.duration_cycles
                self._busy_until[qubit] = max(
                    self._busy_until.get(qubit, 0), busy_until)

    def _resolve_slot(self, name: str, operation: QuantumOperation,
                      register: tuple[str, int] | None) -> TimedOperation:
        if register is None:
            raise AssemblyError(f"operation {name} lacks a target register")
        kind, index = register
        if operation.uses_two_qubit_target:
            if kind != "T":
                raise AssemblyError(f"{name} requires a T register")
            mask = self._t_registers.get(index, 0)
            pairs = self.isa.pairs_from_mask(mask)
            if not pairs:
                raise AssemblyError(
                    f"{name} T{index} selects no qubit pairs (register "
                    f"never set?)")
            return TimedOperation(name=name, operation=operation,
                                  pairs=pairs)
        if kind != "S":
            raise AssemblyError(f"{name} requires an S register")
        mask = self._s_registers.get(index, 0)
        qubits = self.isa.qubits_from_mask(mask)
        if not qubits:
            raise AssemblyError(
                f"{name} S{index} selects no qubits (register never set?)")
        return TimedOperation(name=name, operation=operation, qubits=qubits)

    def _check_conflicts(self, point: TimingPoint,
                         new: TimedOperation) -> None:
        new_qubits = set(new.touched_qubits())
        if len(new_qubits) != len(new.touched_qubits()):
            raise OperationConflictError(
                f"operation {new.name} touches a qubit twice at cycle "
                f"{point.cycle}")
        for existing in point.operations:
            overlap = new_qubits.intersection(existing.touched_qubits())
            if overlap:
                raise OperationConflictError(
                    f"operations {existing.name} and {new.name} both touch "
                    f"qubit(s) {sorted(overlap)} at cycle {point.cycle}")

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def timeline(self) -> Timeline:
        """The constructed timeline, points in time order."""
        ordered = sorted(self._points.values(), key=lambda p: p.cycle)
        return Timeline(points=[p for p in ordered if p.operations])


def build_timeline(isa: EQASMInstantiation, instructions,
                   gpr_reader: Callable[[int], int] | None = None) -> Timeline:
    """Convenience: build the timeline of an instruction sequence."""
    builder = TimelineBuilder(isa, gpr_reader=gpr_reader)
    builder.feed_program(instructions)
    return builder.timeline()
