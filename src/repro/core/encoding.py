"""Binary instruction encoding/decoding, driven by a declarative spec.

The binary format is an *instantiation-time* choice (Section 2.4: "the
binary format is defined during the instantiation of eQASM").  Each
:class:`~repro.core.isa.EQASMInstantiation` carries an
:class:`~repro.core.isaspec.EncodingSpec` — formats, named bit-fields,
opcode assignments, and the bundle slot layout as *data* — and the
encoder/decoder here interpret it generically: encode packs each
format's fields through its codec
(:data:`repro.core.isaspec.bindings.CODECS`) into the word, decode
unpacks the same fields and rebuilds the instruction object through the
format's entry in the instruction table
(:data:`repro.core.instructions.MNEMONICS`, the table the parser and
printer read too).  The two directions share one table, which keeps
them inverse by construction; there is no per-mnemonic code path.

The paper's 32-bit instantiation ships as the registered
``fig8-32bit`` spec and reproduces Fig. 8 bit for bit (bundle flag at
bit 31, 6-bit opcode at 30..25, Sd/Td at bit 20, bundle slots at
22/17/8/3); wider instantiations (``surface17-64bit``,
``surface49-192bit``) are further spec values of the same family — see
:mod:`repro.core.isaspec.build` for the layout rules and
``python -m repro.core.isaspec validate --all --report-dir ...`` for
rendered field tables.

Every field codec validates its domain and raises
:class:`~repro.core.errors.EncodingError` on overflow; decode is the
exact inverse (round-trip tested property-style per registered spec in
the test suite) and raises :class:`~repro.core.errors.DecodingError`
on unrepresentable words.
"""

from __future__ import annotations

from repro.core.errors import DecodingError, EncodingError
from repro.core.instructions import (
    MNEMONICS,
    Bundle,
    BundleOperation,
    Instruction,
    mnemonic_of,
)
from repro.core.isa import EQASMInstantiation
from repro.core.isaspec.bindings import CODECS, check_field
from repro.core.isaspec.model import BundleSlotSpec, EncodingSpec
from repro.core.operations import OperationKind


class InstructionEncoder:
    """Encodes instruction objects into words for an instantiation."""

    def __init__(self, isa: EQASMInstantiation):
        self.isa = isa
        self.spec: EncodingSpec = isa.encoding_spec
        self._formats = {fmt.name: fmt for fmt in self.spec.formats}

    # ------------------------------------------------------------------
    # Single-word formats
    # ------------------------------------------------------------------
    def encode(self, instruction: Instruction) -> int:
        """Encode one instruction into an instruction-width word.

        Bundles must already fit the VLIW width (the assembler splits
        longer ones) and BR targets must be resolved offsets.
        """
        if isinstance(instruction, Bundle):
            return self._encode_bundle(instruction)
        fmt = self._formats.get(mnemonic_of(instruction))
        if fmt is None:
            raise EncodingError(
                f"cannot encode {type(instruction).__name__}")
        word = fmt.opcode << self.spec.opcode_offset
        for field in fmt.fields:
            encode_value = CODECS[field.codec][0]
            raw = encode_value(self.isa, field,
                               getattr(instruction, field.attr))
            word |= raw << field.offset
        return word

    # ------------------------------------------------------------------
    # Bundle words
    # ------------------------------------------------------------------
    def _encode_bundle(self, bundle: Bundle) -> int:
        isa = self.isa
        spec = self.spec.bundle
        if spec is None:
            raise EncodingError(
                f"spec {self.spec.name} defines no bundle word")
        if len(bundle.operations) > len(spec.slots):
            raise EncodingError(
                f"bundle holds {len(bundle.operations)} operations; the "
                f"VLIW width is {len(spec.slots)} (assembler must split)")
        check_field("PI", bundle.pi, spec.pi_width)
        slots = list(bundle.operations)
        while len(slots) < len(spec.slots):
            slots.append(BundleOperation(name=isa.operations.QNOP_NAME,
                                         register=None))
        word = (1 << spec.flag_bit) | (bundle.pi << spec.pi_offset)
        for slot_spec, slot in zip(spec.slots, slots):
            opcode, register_index = self._encode_slot(slot, slot_spec)
            word |= opcode << slot_spec.op_offset
            word |= register_index << slot_spec.reg_offset
        return word

    def _encode_slot(self, slot: BundleOperation,
                     slot_spec: BundleSlotSpec) -> tuple[int, int]:
        """Encode one VLIW slot to (q_opcode, target_register_index)."""
        isa = self.isa
        operation = isa.operations.get(slot.name)
        opcode = isa.operations.opcode(slot.name)
        check_field("q opcode", opcode, slot_spec.op_width)
        if operation.kind is OperationKind.NOP:
            if slot.register is not None:
                raise EncodingError("QNOP takes no target register")
            return opcode, 0
        if slot.register is None:
            raise EncodingError(f"operation {slot.name} needs a target")
        kind, index = slot.register
        expected = "T" if operation.uses_two_qubit_target else "S"
        if kind != expected:
            raise EncodingError(
                f"operation {slot.name} needs a {expected} register, "
                f"got {kind}{index}")
        limit = (isa.num_two_qubit_target_registers if expected == "T"
                 else isa.num_single_qubit_target_registers)
        if index >= limit:
            raise EncodingError(f"{kind}{index} out of range")
        check_field("target register", index, slot_spec.reg_width)
        return opcode, index


class InstructionDecoder:
    """Decodes instruction-width words back into instruction objects."""

    def __init__(self, isa: EQASMInstantiation):
        self.isa = isa
        self.spec: EncodingSpec = isa.encoding_spec
        self._by_opcode = self.spec.opcode_table()

    def decode(self, word: int) -> Instruction:
        """Decode one instruction-width word."""
        spec = self.spec
        if not 0 <= word < (1 << spec.instruction_width):
            raise DecodingError(
                f"word {word:#x} is not {spec.instruction_width} bits")
        if spec.bundle is not None and (word >> spec.bundle.flag_bit) & 1:
            return self._decode_bundle(word)
        return self._decode_single(word)

    def _decode_single(self, word: int) -> Instruction:
        spec = self.spec
        opcode = (word >> spec.opcode_offset) & \
            ((1 << spec.opcode_width) - 1)
        fmt = self._by_opcode.get(opcode)
        if fmt is None:
            raise DecodingError(f"unknown single-format opcode {opcode}")
        cls, fixed = MNEMONICS[fmt.name]
        kwargs = dict(fixed)
        for field in fmt.fields:
            raw = (word >> field.offset) & ((1 << field.width) - 1)
            decode_value = CODECS[field.codec][1]
            kwargs[field.attr] = decode_value(self.isa, field, raw)
        return cls(**kwargs)

    def _decode_bundle(self, word: int) -> Bundle:
        isa = self.isa
        spec = self.spec.bundle
        pi = (word >> spec.pi_offset) & ((1 << spec.pi_width) - 1)
        operations = []
        for slot_spec in spec.slots:
            opcode = (word >> slot_spec.op_offset) & \
                ((1 << slot_spec.op_width) - 1)
            register_index = (word >> slot_spec.reg_offset) & \
                ((1 << slot_spec.reg_width) - 1)
            name = isa.operations.name_for_opcode(opcode)
            operation = isa.operations.get(name)
            if operation.kind is OperationKind.NOP:
                operations.append(BundleOperation(name=name, register=None))
                continue
            kind = "T" if operation.uses_two_qubit_target else "S"
            operations.append(
                BundleOperation(name=name, register=(kind, register_index)))
        # Trailing QNOPs are physical filler; keep them so that
        # encode(decode(w)) == w exactly.
        return Bundle(operations=tuple(operations), pi=pi, explicit_pi=True)
