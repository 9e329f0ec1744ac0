"""eQASM instantiation: the binding of the assembly framework to a
concrete binary format, chip, and operation configuration.

Section 2.4: "the definition of eQASM focuses on the assembly level ...
The binary format is defined during the instantiation of eQASM targeting
a concrete control electronic setup and quantum chip."  The binary
format is one value, the instantiation's
:class:`~repro.core.isaspec.EncodingSpec`; every width the assembler,
the quantum pipeline and the code generator read comes from it.
Section 4.2's 32-bit instantiation for the seven-qubit chip is
:func:`seven_qubit_instantiation`, the distance-2 member of
:func:`rotated_surface_instantiation`, and the two-qubit experiment
setup of Section 5 is :func:`two_qubit_instantiation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ConfigurationError
from repro.core.isaspec.model import EncodingSpec
from repro.core.isaspec.registry import load_registered_spec
from repro.core.isaspec.validate import ensure_valid
from repro.core.operations import OperationSet, default_operation_set
from repro.topology.chip import QuantumChipTopology
from repro.topology.library import (
    rotated_surface_chip,
    rotated_surface_layout,
    two_qubit_chip,
)


def _field_width(spec: EncodingSpec, format_name: str, attr: str) -> int:
    """Width of the field binding ``attr`` in one format of a valid
    spec (validation guarantees the format and the field exist)."""
    return next(spec_field.width
                for spec_field in spec.format_named(format_name).fields
                if spec_field.attr == attr)


@dataclass
class EQASMInstantiation:
    """A chip, an operation set and the binary format that encodes them.

    ``encoding_spec`` states the binary format; the width attributes
    below it (``instruction_width``, ``vliw_width``, ``pi_width``, the
    two mask-field widths and ``qwait_immediate_width``) are read from
    the spec once, at construction.  The registered ``fig8-32bit`` spec
    is the paper's chosen configuration (Section 4.2): 32-bit words,
    VLIW width 2, a 3-bit PI field (Config 9: ts3, wPI = 3, SOMQ),
    20-bit QWAIT immediates and 9-bit q opcodes; the defaults here add
    32 S and 32 T registers and a 20 ns cycle.
    """

    name: str
    topology: QuantumChipTopology
    operations: OperationSet
    #: The declarative binary format (see :mod:`repro.core.isaspec`).
    encoding_spec: EncodingSpec
    num_gprs: int = 32
    num_single_qubit_target_registers: int = 32
    num_two_qubit_target_registers: int = 32
    cycle_time_ns: float = 20.0
    measurement_cycles: int = 15
    instruction_width: int = field(init=False)
    vliw_width: int = field(init=False)
    pi_width: int = field(init=False)
    qubit_mask_field_width: int = field(init=False)
    pair_mask_field_width: int = field(init=False)
    qwait_immediate_width: int = field(init=False)

    def __post_init__(self) -> None:
        spec = ensure_valid(self.encoding_spec)
        bundle = spec.bundle
        if bundle is None:
            raise ConfigurationError(
                f"encoding spec {spec.name!r} defines no bundle word; "
                f"quantum instructions cannot be encoded")
        self.instruction_width = spec.instruction_width
        self.vliw_width = len(bundle.slots)
        self.pi_width = bundle.pi_width
        self.qubit_mask_field_width = _field_width(spec, "SMIS", "qubits")
        self.pair_mask_field_width = _field_width(spec, "SMIT", "pairs")
        self.qwait_immediate_width = _field_width(spec, "QWAIT", "cycles")
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
        for slot in bundle.slots:
            if self.operations.opcode_width != slot.op_width:
                raise ConfigurationError(
                    f"operation set assigns {self.operations.opcode_width}"
                    f"-bit opcodes; the bundle format provides "
                    f"{slot.op_width}")
            max_register = 1 << slot.reg_width
            if self.num_single_qubit_target_registers > max_register:
                raise ConfigurationError("too many S registers for the field")
            if self.num_two_qubit_target_registers > max_register:
                raise ConfigurationError("too many T registers for the field")
        qi_width = _field_width(spec, "FMR", "qubit")
        if self.topology.qubits and \
                max(self.topology.qubits) >= (1 << qi_width):
            raise ConfigurationError(
                f"chip {self.topology.name} has qubit addresses up to "
                f"{max(self.topology.qubits)}; the spec's {qi_width}-bit "
                f"FMR Qi field cannot address them — widen the field in "
                f"the encoding spec")

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


def rotated_surface_instantiation(
        distance: int,
        operations: OperationSet | None = None) -> EQASMInstantiation:
    """The instantiation for the rotated distance-``d`` surface-code chip.

    At ``d = 2`` this is the paper's own 32-bit format (Fig. 8) for the
    seven-qubit chip, whose 8 couplings x 2 directions fill its 16-bit
    pair mask.  That format cannot address the wider chips: ``d = 3``
    has 24 couplings (a 48-bit pair mask), ``d = 5`` has 80 (160 bits)
    — and the paper itself notes the instantiation, word width
    included, is free per platform.  The chip's layout names its
    registered encoding spec (64-bit words at ``d = 3``; 192 bits at
    ``d = 5``, whose spec also widens the FMR Qi field for qubit
    addresses up to 48), and every width comes from that spec.
    """
    chip = rotated_surface_chip(distance)
    spec = load_registered_spec(rotated_surface_layout(distance).spec_name)
    return EQASMInstantiation(
        name=f"eqasm-{chip.num_qubits}q-{spec.instruction_width}bit",
        topology=chip,
        operations=operations or default_operation_set(),
        encoding_spec=spec,
    )


def seven_qubit_instantiation(
        operations: OperationSet | None = None) -> EQASMInstantiation:
    """The paper's 32-bit instantiation for the seven-qubit chip."""
    return rotated_surface_instantiation(2, operations)


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
