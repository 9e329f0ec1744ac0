"""eQASM instantiation: the binding of the assembly framework to a
concrete binary format, chip, and operation configuration.

Section 2.4: "the definition of eQASM focuses on the assembly level ...
The binary format is defined during the instantiation of eQASM targeting
a concrete control electronic setup and quantum chip."  This class holds
every instantiation-time parameter; Section 4.2's 32-bit instantiation
for the seven-qubit chip is :func:`seven_qubit_instantiation`, and the
two-qubit experiment setup of Section 5 is :func:`two_qubit_instantiation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ConfigurationError
from repro.core.isaspec.build import build_encoding_spec
from repro.core.isaspec.model import EncodingSpec
from repro.core.isaspec.registry import load_registered_spec
from repro.core.isaspec.validate import ensure_valid
from repro.core.operations import OperationSet, default_operation_set
from repro.topology.chip import QuantumChipTopology
from repro.topology.library import (
    rotated_surface_chip,
    rotated_surface_layout,
    surface7,
    two_qubit_chip,
)


@dataclass
class EQASMInstantiation:
    """All parameters fixed when eQASM is instantiated for a platform.

    The defaults implement the paper's chosen configuration
    (Section 4.2): 32-bit words, VLIW width 2, a 3-bit PI field
    (Config 9: ts3, wPI = 3, SOMQ), 32 S and 32 T registers with mask
    encoding, 20-bit QWAIT immediates, 9-bit q opcodes, and a 20 ns
    cycle.
    """

    name: str
    topology: QuantumChipTopology
    operations: OperationSet
    instruction_width: int = 32
    vliw_width: int = 2
    pi_width: int = 3
    num_gprs: int = 32
    num_single_qubit_target_registers: int = 32
    num_two_qubit_target_registers: int = 32
    qubit_mask_field_width: int = 7
    pair_mask_field_width: int = 16
    qwait_immediate_width: int = 20
    q_opcode_width: int = 9
    target_register_address_width: int = 5
    cycle_time_ns: float = 20.0
    measurement_cycles: int = 15
    #: The declarative binary format (see :mod:`repro.core.isaspec`).
    #: ``None`` builds the family layout from the width parameters
    #: above; registered instantiations pass a checked-in spec value.
    encoding_spec: EncodingSpec | None = None

    def __post_init__(self) -> None:
        if self.vliw_width < 1:
            raise ConfigurationError("VLIW width must be at least 1")
        if self.topology.qubit_mask_width > self.qubit_mask_field_width:
            raise ConfigurationError(
                f"chip {self.topology.name} needs a "
                f"{self.topology.qubit_mask_width}-bit qubit mask; the "
                f"instruction format provides {self.qubit_mask_field_width}")
        if self.topology.pair_mask_width > self.pair_mask_field_width:
            raise ConfigurationError(
                f"chip {self.topology.name} needs a "
                f"{self.topology.pair_mask_width}-bit pair mask; the "
                f"instruction format provides {self.pair_mask_field_width}")
        if self.operations.opcode_width != self.q_opcode_width:
            raise ConfigurationError(
                f"operation set assigns {self.operations.opcode_width}-bit "
                f"opcodes; the bundle format provides {self.q_opcode_width}")
        max_register = (1 << self.target_register_address_width)
        if self.num_single_qubit_target_registers > max_register:
            raise ConfigurationError("too many S registers for the field")
        if self.num_two_qubit_target_registers > max_register:
            raise ConfigurationError("too many T registers for the field")
        # The SMIS/SMIT layout places the 5-bit target-register field
        # 12 bits below the word's top; masks live in the bits below it
        # (see repro.core.encoding).
        mask_room = self.instruction_width - 12
        if self.qubit_mask_field_width > mask_room:
            raise ConfigurationError(
                f"{self.qubit_mask_field_width}-bit qubit masks do not "
                f"fit a {self.instruction_width}-bit word (at most "
                f"{mask_room}); widen the instruction format")
        if self.pair_mask_field_width > mask_room:
            raise ConfigurationError(
                f"{self.pair_mask_field_width}-bit pair masks do not "
                f"fit a {self.instruction_width}-bit word (at most "
                f"{mask_room}); widen the instruction format")
        if self.encoding_spec is None:
            self.encoding_spec = build_encoding_spec(
                self.name,
                self.instruction_width,
                qubit_mask_field_width=self.qubit_mask_field_width,
                pair_mask_field_width=self.pair_mask_field_width,
                qwait_immediate_width=self.qwait_immediate_width,
                q_opcode_width=self.q_opcode_width,
                target_register_address_width=(
                    self.target_register_address_width),
                vliw_width=self.vliw_width,
                pi_width=self.pi_width,
            )
        ensure_valid(self.encoding_spec)
        self._cross_validate_spec()

    def _cross_validate_spec(self) -> None:
        """Check the spec agrees with this instantiation's parameters
        and can address its chip."""
        spec = self.encoding_spec

        def mismatch(what: str, spec_value, isa_value) -> None:
            raise ConfigurationError(
                f"encoding spec {spec.name!r} {what} ({spec_value}) does "
                f"not match instantiation {self.name!r} ({isa_value})")

        if spec.instruction_width != self.instruction_width:
            mismatch("instruction width", spec.instruction_width,
                     self.instruction_width)
        field_widths = {
            ("SMIS", "qubits"): self.qubit_mask_field_width,
            ("SMIT", "pairs"): self.pair_mask_field_width,
            ("QWAIT", "cycles"): self.qwait_immediate_width,
        }
        for (format_name, attr), expected in field_widths.items():
            fmt = spec.format_named(format_name)
            for spec_field in fmt.fields if fmt else ():
                if spec_field.attr == attr and \
                        spec_field.width != expected:
                    mismatch(f"{format_name} {spec_field.name} width",
                             spec_field.width, expected)
        fmr = spec.format_named("FMR")
        if fmr is not None and self.topology.qubits:
            max_qubit = max(self.topology.qubits)
            for spec_field in fmr.fields:
                if spec_field.attr == "qubit" and \
                        max_qubit >= (1 << spec_field.width):
                    raise ConfigurationError(
                        f"chip {self.topology.name} has qubit addresses "
                        f"up to {max_qubit}; the spec's {spec_field.width}"
                        f"-bit FMR Qi field cannot address them — widen "
                        f"the field in the encoding spec")
        bundle = spec.bundle
        if bundle is None:
            raise ConfigurationError(
                f"encoding spec {spec.name!r} defines no bundle word; "
                f"quantum instructions cannot be encoded")
        if len(bundle.slots) != self.vliw_width:
            mismatch("VLIW slot count", len(bundle.slots),
                     self.vliw_width)
        if bundle.pi_width != self.pi_width:
            mismatch("PI width", bundle.pi_width, self.pi_width)
        for slot in bundle.slots:
            if slot.op_width != self.q_opcode_width:
                mismatch("bundle q-opcode width", slot.op_width,
                         self.q_opcode_width)
            if slot.reg_width != self.target_register_address_width:
                mismatch("bundle target-register width", slot.reg_width,
                         self.target_register_address_width)

    # ------------------------------------------------------------------
    # Derived limits
    # ------------------------------------------------------------------
    @property
    def max_pi(self) -> int:
        """Largest pre-interval a bundle instruction can encode."""
        return (1 << self.pi_width) - 1

    @property
    def max_qwait(self) -> int:
        """Largest immediate a QWAIT instruction can encode."""
        return (1 << self.qwait_immediate_width) - 1

    def ns_to_cycles(self, duration_ns: float) -> int:
        """Convert nanoseconds to (rounded) timing cycles."""
        return round(duration_ns / self.cycle_time_ns)

    def cycles_to_ns(self, cycles: int) -> float:
        """Convert timing cycles to nanoseconds."""
        return cycles * self.cycle_time_ns

    # ------------------------------------------------------------------
    # Mask helpers (assembly <-> register content translation)
    # ------------------------------------------------------------------
    def qubit_mask(self, qubits) -> int:
        """Encode a qubit list as a single-qubit target mask."""
        mask = 0
        available = set(self.topology.qubits)
        for qubit in qubits:
            if qubit not in available:
                raise ConfigurationError(
                    f"qubit {qubit} not on chip {self.topology.name}")
            mask |= 1 << qubit
        return mask

    def qubits_from_mask(self, mask: int) -> tuple[int, ...]:
        """Decode a single-qubit target mask to sorted qubit addresses."""
        qubits = []
        for qubit in self.topology.qubits:
            if (mask >> qubit) & 1:
                qubits.append(qubit)
        return tuple(sorted(qubits))

    def pair_mask(self, pairs) -> int:
        """Encode directed (source, target) pairs as a two-qubit mask."""
        mask = 0
        for source, target in pairs:
            address = self.topology.pair_address(source, target)
            mask |= 1 << address
        return mask

    def pairs_from_mask(self, mask: int) -> tuple[tuple[int, int], ...]:
        """Decode a two-qubit target mask to sorted (source, target)s."""
        pairs = []
        for pair in self.topology.pairs:
            if (mask >> pair.address) & 1:
                pairs.append(pair.as_tuple())
        return tuple(sorted(pairs))


def seven_qubit_instantiation(
        operations: OperationSet | None = None) -> EQASMInstantiation:
    """The paper's 32-bit instantiation for the seven-qubit chip."""
    return EQASMInstantiation(
        name="eqasm-7q-32bit",
        topology=surface7(),
        operations=operations or default_operation_set(),
        encoding_spec=load_registered_spec("fig8-32bit"),
    )


def rotated_surface_instantiation(
        distance: int,
        operations: OperationSet | None = None) -> EQASMInstantiation:
    """The instantiation for the rotated distance-``d`` surface-code chip.

    The paper's 32-bit format cannot address these chips: ``d = 3`` has
    24 couplings x 2 directions (a 48-bit pair mask), ``d = 5`` has 80
    (160 bits), far past the 16 bits of Fig. 8 — and the paper itself
    notes the instantiation, word width included, is free per platform.
    The chip's layout names its registered encoding spec (64-bit words
    at ``d = 3``; 192 bits at ``d = 5``, whose spec also widens the FMR
    Qi field for qubit addresses up to 48); the mask widths come from
    the chip and the word width from the spec.
    """
    chip = rotated_surface_chip(distance)
    spec = load_registered_spec(rotated_surface_layout(distance).spec_name)
    return EQASMInstantiation(
        name=f"eqasm-{chip.num_qubits}q-{spec.instruction_width}bit",
        topology=chip,
        operations=operations or default_operation_set(),
        instruction_width=spec.instruction_width,
        qubit_mask_field_width=chip.qubit_mask_width,
        pair_mask_field_width=chip.pair_mask_width,
        encoding_spec=spec,
    )


def seventeen_qubit_instantiation() -> EQASMInstantiation:
    # Kept because perfbench/workloads.py imports it by this name.
    return rotated_surface_instantiation(3)


def two_qubit_instantiation(
        operations: OperationSet | None = None) -> EQASMInstantiation:
    """The Section 5 experimental setup: the seven-qubit instantiation
    retargeted (via a configuration file, per the paper) to the
    two-qubit chip with qubits renamed 0 and 2."""
    return EQASMInstantiation(
        name="eqasm-2q-32bit",
        topology=two_qubit_chip(),
        operations=operations or default_operation_set(),
        encoding_spec=load_registered_spec("fig8-32bit"),
    )
