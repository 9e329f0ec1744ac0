"""Device model and the device event distributor (Fig. 9 / Fig. 10).

Operating a qubit involves several slave devices: microwave AWGs routed
through the vector switch matrix for x/y rotations, flux AWGs for CZ
gates, and UHFQC units per feedline for measurement.  The *device event
distributor* reorganises the per-qubit micro-operations of one timing
point into per-device *device operations*, which are then buffered in
per-device event queues awaiting their trigger time.

The pulse tables of the devices (codeword -> pulse) are configured at
compile time from the same operation set as the assembler and microcode
unit, completing the three-way consistency requirement of Section 3.2.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.microcode import DeviceKind, MicroOperation
from repro.core.operations import OperationSet
from repro.topology.chip import QuantumChipTopology

@dataclass(frozen=True)
class DeviceId:
    """Identity of one slave device channel."""

    kind: DeviceKind
    index: int  # qubit address for microwave/flux, feedline for measurement

    def __str__(self) -> str:
        return f"{self.kind.value}[{self.index}]"


@dataclass(frozen=True)
class QubitMicroOp:
    """A micro-operation bound to one concrete qubit (or qubit role)."""

    micro_op: MicroOperation
    qubit: int
    pair: tuple[int, int] | None = None  # set for two-qubit roles


@dataclass(frozen=True)
class DeviceOperation:
    """One codeword-triggered action on one device at one timing point."""

    device: DeviceId
    cycle: int
    micro_ops: tuple[QubitMicroOp, ...]

    def qubits(self) -> tuple[int, ...]:
        """All qubits this device operation drives."""
        return tuple(entry.qubit for entry in self.micro_ops)


class PulseLibrary:
    """Codeword-triggered pulse generation: codeword -> unitary/duration.

    This stands in for the HDAWG waveform tables: each micro-operation
    codeword selects a pulse.  Two-qubit operations contribute a single
    *joint* unitary which the machine applies when both the source and
    target micro-operations of the same pair have been released.
    """

    def __init__(self, operations: OperationSet):
        self.operations = operations
        # Waveform-table cache: C-contiguous complex128 copies of each
        # operation's unitary, so the per-trigger hot path never pays
        # dtype conversion or layout fixes.  Keyed by name and guarded
        # by the operation object's identity in case an operation is
        # re-registered between shots.
        self._unitary_cache: dict[str, tuple[int, np.ndarray]] = {}

    def unitary_for(self, name: str) -> np.ndarray:
        """The unitary implementing a configured operation (cached)."""
        operation = self.operations.get(name)
        if operation.unitary is None:
            raise ConfigurationError(
                f"operation {name} has no pulse-defined unitary")
        cached = self._unitary_cache.get(name)
        if cached is not None and cached[0] == id(operation):
            return cached[1]
        # Always copy: freezing the operation's own array would freeze
        # the module-level gate constants it may alias.
        unitary = np.array(operation.unitary, dtype=complex, order="C")
        unitary.flags.writeable = False
        self._unitary_cache[name] = (id(operation), unitary)
        return unitary

    def duration_cycles(self, name: str) -> int:
        """Duration (timing cycles) of a configured operation."""
        return self.operations.get(name).duration_cycles


class DeviceEventDistributor:
    """Reorganises micro-operations into per-device operations.

    Routing rules (Fig. 10):

    * microwave micro-ops -> the microwave channel of their qubit;
    * flux micro-ops -> the flux channel of their qubit;
    * measurement micro-ops -> the UHFQC of the qubit's feedline
      (multiple qubits on one feedline share one device operation —
      frequency-multiplexed readout).
    """

    def __init__(self, topology: QuantumChipTopology):
        self.topology = topology

    def distribute(self, cycle: int,
                   qubit_micro_ops: list[QubitMicroOp]
                   ) -> list[DeviceOperation]:
        """Group one timing point's micro-ops into device operations."""
        grouped: dict[DeviceId, list[QubitMicroOp]] = {}
        for entry in qubit_micro_ops:
            device = self._route(entry)
            grouped.setdefault(device, []).append(entry)
        return [DeviceOperation(device=device, cycle=cycle,
                                micro_ops=tuple(entries))
                for device, entries in grouped.items()]

    def _route(self, entry: QubitMicroOp) -> DeviceId:
        kind = entry.micro_op.device
        if kind is DeviceKind.MEASUREMENT:
            feedline = self.topology.feedline_of(entry.qubit)
            if feedline is None:
                raise ConfigurationError(
                    f"qubit {entry.qubit} has no feedline; cannot route "
                    f"measurement")
            return DeviceId(kind=kind, index=feedline)
        return DeviceId(kind=kind, index=entry.qubit)


class EventQueue:
    """A bounded FIFO of device operations awaiting their trigger time.

    The queues decouple the non-deterministic (reserve) domain from the
    deterministic (trigger) domain; a full queue back-pressures the
    reserve phase, exactly like the hardware FIFOs.
    """

    def __init__(self, depth: int):
        self.depth = depth
        self._entries: deque[DeviceOperation] = deque()

    def push(self, operation: DeviceOperation) -> None:
        """Append an operation; caller must check :meth:`full` first."""
        if self.full:
            raise ConfigurationError("event queue overflow")
        self._entries.append(operation)

    def pop(self) -> DeviceOperation:
        """Remove and return the oldest operation."""
        return self._entries.popleft()

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.depth

    def __len__(self) -> int:
        return len(self._entries)
