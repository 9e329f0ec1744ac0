"""Quantum pipeline: VLIW lanes, mask resolution, operation combination.

Implements the left half of Fig. 9's quantum pipeline:

* the **timestamp manager** consumes QWAIT(R) and PI fields, producing
  timing points (delegated to the same arithmetic as the architectural
  timeline model);
* each **VLIW lane** translates its q opcode through the microcode unit
  and reads its S/T target register;
* the **quantum microinstruction buffer** resolves the mask-based qubit
  address into per-qubit micro-operation selection signals
  (Table 2) — ``OpSel_i`` in {NONE, SRC, TGT, BOTH};
* the **operation combination** module merges the lanes' micro-ops and
  accumulates everything belonging to one timing point (a long bundle
  spans several instruction words with PI = 0); it raises
  :class:`~repro.core.errors.OperationConflictError` when two
  micro-operations land on the same qubit, in which case "the quantum
  processor stops" (Section 4.3).

The pipeline emits :class:`ReservedPoint` objects — a completed timing
point with its per-qubit micro-ops — which the machine hands to the
device event distributor.

A bundle's lane micro-ops are a pure function of the bundle and the
S/T register contents its lanes read, so each successful decode is
cached per bundle and register contents: a shot that repeats the
previous shot's instruction stream decodes nothing.  The cache holds
the bundle objects it keys by identity, belongs to the loaded binary
(the machine clears it in ``load()``) and never stores a failed decode,
so every decode error still raises on every execution.  The
cross-instruction conflict check (:meth:`QuantumPipeline._combine`)
runs per timing point on every shot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.errors import (
    AssemblyError,
    OperationConflictError,
)
from repro.core.instructions import Bundle, SMIS, SMIT
from repro.core.isa import EQASMInstantiation
from repro.core.microcode import MicrocodeUnit, MicroOpRole
from repro.core.registers import TargetRegisterFile
from repro.uarch.devices import QubitMicroOp


class OpSel(enum.Enum):
    """Micro-operation selection signal per qubit (Table 2)."""

    NONE = 0b00
    SRC = 0b01
    TGT = 0b10
    BOTH = 0b11


@dataclass
class ReservedPoint:
    """A timing point whose operations have been fully collected."""

    cycle: int
    micro_ops: list[QubitMicroOp] = field(default_factory=list)
    reserved_at_ns: float = 0.0


class QuantumPipeline:
    """The reserve-phase hardware of QuMA v2."""

    def __init__(self, isa: EQASMInstantiation,
                 microcode: MicrocodeUnit | None = None):
        self.isa = isa
        self.microcode = microcode or MicrocodeUnit(isa.operations)
        self.s_registers = TargetRegisterFile(
            "S", isa.num_single_qubit_target_registers,
            isa.qubit_mask_field_width)
        self.t_registers = TargetRegisterFile(
            "T", isa.num_two_qubit_target_registers,
            isa.pair_mask_field_width)
        self._current_cycle = 0
        self._pending: ReservedPoint | None = None
        # id(bundle) -> (bundle, (register file, index) per lane read,
        # register contents -> lane micro-ops).
        self._decoded: dict[int, tuple[Bundle, tuple, dict]] = {}

    def clear_decode_cache(self) -> None:
        """Forget every cached bundle decode (a new binary was loaded)."""
        self._decoded.clear()

    # ------------------------------------------------------------------
    # Shot lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear timeline state and target registers (new shot)."""
        self.s_registers.reset()
        self.t_registers.reset()
        self._current_cycle = 0
        self._pending = None

    # ------------------------------------------------------------------
    # Instruction processing (reserve phase)
    # ------------------------------------------------------------------
    def process_smis(self, instruction: SMIS) -> None:
        """Update a single-qubit target register."""
        self.s_registers.write(instruction.sd,
                               self.isa.qubit_mask(instruction.qubits))

    def process_smit(self, instruction: SMIT) -> None:
        """Update a two-qubit target register (mask validity checked)."""
        mask = self.isa.pair_mask(instruction.pairs)
        self.isa.topology.validate_pair_mask(mask)
        self.t_registers.write(instruction.td, mask)

    def process_wait(self, cycles: int) -> ReservedPoint | None:
        """Advance the timeline; flushes a pending point if the wait
        moves to a new timing point (completion detection by
        "recognising a new timing point", Section 4.3)."""
        if cycles < 0:
            raise AssemblyError("negative wait")
        flushed = None
        if cycles > 0:
            flushed = self.flush_pending()
        self._current_cycle += cycles
        return flushed

    def process_bundle(
            self, bundle: Bundle, reserved_at_ns: float,
    ) -> tuple[ReservedPoint | None, tuple[QubitMicroOp, ...]]:
        """Process one bundle instruction word.

        Returns ``(flushed, new_entries)``: the *previous* timing point
        if this bundle starts a new one (PI > 0), and the micro-ops this
        word contributed (the machine uses the latter to invalidate Q
        registers when measurements issue).  The new point stays
        buffered until completed.
        """
        flushed = None
        if bundle.pi > 0:
            flushed = self.flush_pending()
            self._current_cycle += bundle.pi
        cycle = self._current_cycle
        if self._pending is None:
            self._pending = ReservedPoint(cycle=cycle)
        self._pending.reserved_at_ns = reserved_at_ns
        new_entries = self._decode(bundle)
        self._combine(self._pending, new_entries)
        return flushed, new_entries

    def flush_pending(self) -> ReservedPoint | None:
        """Release the buffered timing point (if any) downstream."""
        pending = self._pending
        self._pending = None
        return pending

    @property
    def current_cycle(self) -> int:
        """Cycle of the last generated timing point."""
        return self._current_cycle

    # ------------------------------------------------------------------
    # VLIW lanes + microinstruction buffer
    # ------------------------------------------------------------------
    def _decode(self, bundle: Bundle) -> tuple[QubitMicroOp, ...]:
        """The bundle's lane micro-ops, decoded once per bundle and
        register contents (see the module docstring)."""
        cached = self._decoded.get(id(bundle))
        if cached is None or cached[0] is not bundle:
            entries = self._lane_micro_ops(bundle)
            # The reads are named only after a successful decode: then
            # every lane's operation is known and every register index
            # valid.  QNOP lanes read nothing.
            reads = tuple(
                (self.t_registers
                 if self.isa.operations.get(slot.name).uses_two_qubit_target
                 else self.s_registers, slot.register[1])
                for slot in bundle.operations if slot.register is not None
                and self.microcode.translate_name(slot.name))
            masks = tuple(registers.read(index)
                          for registers, index in reads)
            self._decoded[id(bundle)] = (bundle, reads, {masks: entries})
            return entries
        _, reads, by_masks = cached
        masks = tuple(registers.read(index) for registers, index in reads)
        entries = by_masks.get(masks)
        if entries is None:
            entries = by_masks[masks] = self._lane_micro_ops(bundle)
        return entries

    def _lane_micro_ops(self, bundle: Bundle) -> tuple[QubitMicroOp, ...]:
        entries: list[QubitMicroOp] = []
        if len(bundle.operations) > self.isa.vliw_width:
            raise AssemblyError(
                f"bundle with {len(bundle.operations)} operations exceeds "
                f"the {self.isa.vliw_width}-wide VLIW front end")
        lane_outputs = [self._lane(slot) for slot in bundle.operations]
        # Operation combination step 1: merge both VLIW lanes, raising
        # on any qubit receiving micro-ops from two lanes.
        seen: dict[int, str] = {}
        for lane_entries in lane_outputs:
            for entry in lane_entries:
                if entry.qubit in seen:
                    raise OperationConflictError(
                        f"VLIW lanes emit {seen[entry.qubit]} and "
                        f"{entry.micro_op.operation} on qubit {entry.qubit}")
                seen[entry.qubit] = entry.micro_op.operation
                entries.append(entry)
        return tuple(entries)

    def _lane(self, slot) -> list[QubitMicroOp]:
        """One VLIW lane: microcode translation + mask resolution."""
        micro_ops = self.microcode.translate_name(slot.name)
        if not micro_ops:  # QNOP
            return []
        operation = self.isa.operations.get(slot.name)
        if slot.register is None:
            raise AssemblyError(f"{slot.name} lacks a target register")
        kind, index = slot.register
        if operation.uses_two_qubit_target:
            mask = self.t_registers.read(index)
            selection = self.resolve_pair_mask(mask)
            by_role = {m.role: m for m in micro_ops}
            entries = []
            pair_of = self._pair_lookup(mask)
            for qubit, signal in selection.items():
                if signal is OpSel.SRC:
                    entries.append(QubitMicroOp(
                        micro_op=by_role[MicroOpRole.SOURCE], qubit=qubit,
                        pair=pair_of[qubit]))
                elif signal is OpSel.TGT:
                    entries.append(QubitMicroOp(
                        micro_op=by_role[MicroOpRole.TARGET], qubit=qubit,
                        pair=pair_of[qubit]))
            if not entries:
                raise AssemblyError(
                    f"{slot.name} T{index} selects no qubit pairs")
            return entries
        mask = self.s_registers.read(index)
        qubits = self.isa.qubits_from_mask(mask)
        if not qubits:
            raise AssemblyError(f"{slot.name} S{index} selects no qubits")
        micro_op = micro_ops[0]
        return [QubitMicroOp(micro_op=micro_op, qubit=qubit)
                for qubit in qubits]

    # ------------------------------------------------------------------
    # Mask resolution (Table 2)
    # ------------------------------------------------------------------
    def resolve_single_mask(self, mask: int) -> dict[int, OpSel]:
        """OpSel signals for a single-qubit operation mask."""
        selection = {qubit: OpSel.NONE for qubit in self.isa.topology.qubits}
        for qubit in self.isa.qubits_from_mask(mask):
            selection[qubit] = OpSel.BOTH
        return selection

    def resolve_pair_mask(self, mask: int) -> dict[int, OpSel]:
        """OpSel signals for a two-qubit operation mask.

        For every selected edge, the edge's source qubit gets SRC
        ('01') and its target qubit TGT ('10'); qubits on no selected
        edge get NONE ('00').  Overlapping edges raise (invalid T
        register content, normally caught by the assembler).
        """
        self.isa.topology.validate_pair_mask(mask)
        selection = {qubit: OpSel.NONE for qubit in self.isa.topology.qubits}
        for pair in self.isa.topology.pairs:
            if (mask >> pair.address) & 1:
                selection[pair.source] = OpSel.SRC
                selection[pair.target] = OpSel.TGT
        return selection

    def _pair_lookup(self, mask: int) -> dict[int, tuple[int, int]]:
        """Map each involved qubit to its (source, target) pair."""
        lookup: dict[int, tuple[int, int]] = {}
        for pair in self.isa.topology.pairs:
            if (mask >> pair.address) & 1:
                lookup[pair.source] = pair.as_tuple()
                lookup[pair.target] = pair.as_tuple()
        return lookup

    # ------------------------------------------------------------------
    # Operation combination step 2: cross-instruction accumulation
    # ------------------------------------------------------------------
    @staticmethod
    def _combine(point: ReservedPoint,
                 new_entries: list[QubitMicroOp]) -> None:
        used = {entry.qubit for entry in point.micro_ops}
        for entry in new_entries:
            if entry.qubit in used:
                raise OperationConflictError(
                    f"two bundle instructions specify operations on qubit "
                    f"{entry.qubit} at cycle {point.cycle}")
            used.add(entry.qubit)
            point.micro_ops.append(entry)
