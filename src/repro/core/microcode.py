"""Microcode unit: q opcode -> micro-operation translation (Section 4.3).

Inside each VLIW lane the microcode unit translates the 9-bit q opcode
into one micro-operation for a single-qubit operation, or two
(``u_op_src`` and ``u_op_tgt``) for a two-qubit operation.  The
translation table — the *Q control store* — is a lookup table written at
compile time from the same :class:`~repro.core.operations.OperationSet`
that configured the assembler, guaranteeing the consistency the paper
requires between assembler, microcode unit and pulse generation.

A micro-operation carries:

* the parent operation name (which the codeword-triggered pulse
  generation resolves to a pulse/unitary),
* its role (``single`` / ``source`` / ``target`` / ``measure``),
* the device kind it must be routed to (microwave for x/y rotations,
  flux for CZ-style gates, measurement for readout) — used by the
  device event distributor,
* the execution-flag selection for fast conditional execution,
* a numeric codeword (dense index into the pulse tables).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.errors import ConfigurationError
from repro.core.operations import (
    ExecutionFlag,
    OperationKind,
    OperationSet,
    QuantumOperation,
)


class DeviceKind(enum.Enum):
    """The slave-device class a micro-operation is routed to (Fig. 10)."""

    MICROWAVE = "microwave"      # HDAWG + VSM: single-qubit x/y rotations
    FLUX = "flux"                # HDAWG flux lines: CZ, z rotations
    MEASUREMENT = "measurement"  # UHFQC feedlines


class MicroOpRole(enum.Enum):
    """Which endpoint of the operation a micro-operation drives."""

    SINGLE = "single"
    SOURCE = "source"
    TARGET = "target"
    MEASURE = "measure"


@dataclass(frozen=True)
class MicroOperation:
    """One micro-operation emitted by the microcode unit."""

    operation: str
    role: MicroOpRole
    device: DeviceKind
    codeword: int
    condition: ExecutionFlag
    duration_cycles: int
    #: Whether this micro-operation starts a readout (its role is
    #: MEASURE); a plain attribute, read per bundle of every shot.
    is_measurement: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "is_measurement",
                           self.role is MicroOpRole.MEASURE)


def _device_for(operation: QuantumOperation) -> DeviceKind:
    """Default device routing: measurements to the UHFQC, two-qubit
    (flux-pulsed) gates to flux AWGs, everything else to microwave."""
    if operation.kind is OperationKind.MEASUREMENT:
        return DeviceKind.MEASUREMENT
    if operation.kind is OperationKind.TWO_QUBIT:
        return DeviceKind.FLUX
    return DeviceKind.MICROWAVE


class MicrocodeUnit:
    """The Q control store: maps q opcodes to micro-operations."""

    def __init__(self, operations: OperationSet):
        self.operations = operations
        self._store: dict[int, tuple[MicroOperation, ...]] = {}
        next_codeword = 1
        for name in operations.names():
            operation = operations.get(name)
            opcode = operations.opcode(name)
            if operation.kind is OperationKind.NOP:
                self._store[opcode] = ()
                continue
            device = _device_for(operation)
            if operation.kind is OperationKind.TWO_QUBIT:
                source = MicroOperation(
                    operation=name, role=MicroOpRole.SOURCE, device=device,
                    codeword=next_codeword, condition=operation.condition,
                    duration_cycles=operation.duration_cycles)
                target = MicroOperation(
                    operation=name, role=MicroOpRole.TARGET, device=device,
                    codeword=next_codeword + 1,
                    condition=operation.condition,
                    duration_cycles=operation.duration_cycles)
                self._store[opcode] = (source, target)
                next_codeword += 2
            elif operation.kind is OperationKind.MEASUREMENT:
                measure = MicroOperation(
                    operation=name, role=MicroOpRole.MEASURE, device=device,
                    codeword=next_codeword, condition=operation.condition,
                    duration_cycles=operation.duration_cycles)
                self._store[opcode] = (measure,)
                next_codeword += 1
            else:
                single = MicroOperation(
                    operation=name, role=MicroOpRole.SINGLE, device=device,
                    codeword=next_codeword, condition=operation.condition,
                    duration_cycles=operation.duration_cycles)
                self._store[opcode] = (single,)
                next_codeword += 1

    def translate(self, q_opcode: int) -> tuple[MicroOperation, ...]:
        """Micro-operations for a q opcode (empty tuple for QNOP)."""
        if q_opcode not in self._store:
            raise ConfigurationError(
                f"q opcode {q_opcode} not in the Q control store")
        return self._store[q_opcode]

    def translate_name(self, name: str) -> tuple[MicroOperation, ...]:
        """Micro-operations for an operation name."""
        return self.translate(self.operations.opcode(name))

    def __len__(self) -> int:
        return len(self._store)
