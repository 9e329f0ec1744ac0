"""Pure-data model of an eQASM binary-encoding specification.

Everything in this module is deliberately *inert*: frozen dataclasses
holding names, bit offsets, widths, opcode numbers, and codec names as
strings.  Nothing here imports the instruction taxonomy, a topology, or
an operation set — that binding happens in :mod:`.bindings`, and the
behavioural interpretation (packing bits into words) happens in
:mod:`repro.core.encoding`.  The payoff is that a spec round-trips
losslessly through JSON (:meth:`EncodingSpec.to_json` /
:meth:`EncodingSpec.from_json`), so an instantiation's binary format is
a reviewable artifact instead of a branch ladder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.errors import SpecError

#: Codec names a :class:`FieldSpec` may carry.  The codec decides how an
#: instruction attribute maps to the raw unsigned field value (and
#: back); the implementations live in :mod:`repro.core.isaspec.bindings`.
FIELD_CODECS = (
    "uint",           # plain unsigned integer
    "int",            # two's-complement signed integer
    "branch_offset",  # signed instruction offset; rejects unresolved labels
    "condition",      # repro.core.registers.ComparisonFlag
    "qubit_mask",     # frozenset of qubit addresses <-> SOMQ mask bits
    "pair_mask",      # frozenset of directed pairs <-> pair-address mask
    "sreg",           # S-register index, checked against the register file
    "treg",           # T-register index, checked against the register file
)


@dataclass(frozen=True)
class FieldSpec:
    """One named bit-field of a single-word instruction format.

    ``name`` is the architectural field name used in encoding reports
    and error messages (``Rd``, ``imm``, ``mask`` ...); ``attr`` is the
    instruction-object attribute the field binds (``rd``, ``imm``,
    ``qubits`` ...).  ``offset`` is the LSB position within the word.
    """

    name: str
    attr: str
    offset: int
    width: int
    codec: str = "uint"

    @property
    def msb(self) -> int:
        return self.offset + self.width - 1

    def bit_range(self) -> str:
        """Render as ``msb..lsb`` (or a single bit number)."""
        if self.width == 1:
            return str(self.offset)
        return f"{self.msb}..{self.offset}"

    def to_dict(self) -> dict:
        return {"name": self.name, "attr": self.attr,
                "offset": self.offset, "width": self.width,
                "codec": self.codec}

    @classmethod
    def from_dict(cls, data: dict) -> FieldSpec:
        return cls(name=data["name"], attr=data["attr"],
                   offset=data["offset"], width=data["width"],
                   codec=data.get("codec", "uint"))


@dataclass(frozen=True)
class FormatSpec:
    """One single-word instruction format: an opcode plus its fields.

    The format ``name`` is a mnemonic of the instruction table,
    :data:`repro.core.instructions.MNEMONICS`, which maps it to the
    instruction class (and fixed constructor arguments, for classes
    like ``LogicalOp`` that serve several mnemonics).
    """

    name: str
    opcode: int
    fields: tuple[FieldSpec, ...] = ()

    def to_dict(self) -> dict:
        return {"name": self.name, "opcode": self.opcode,
                "fields": [f.to_dict() for f in self.fields]}

    @classmethod
    def from_dict(cls, data: dict) -> FormatSpec:
        return cls(name=data["name"], opcode=data["opcode"],
                   fields=tuple(FieldSpec.from_dict(f)
                                for f in data.get("fields", ())))


@dataclass(frozen=True)
class BundleSlotSpec:
    """Bit positions of one VLIW lane inside a bundle word."""

    op_offset: int
    op_width: int
    reg_offset: int
    reg_width: int

    def to_dict(self) -> dict:
        return {"op_offset": self.op_offset, "op_width": self.op_width,
                "reg_offset": self.reg_offset, "reg_width": self.reg_width}

    @classmethod
    def from_dict(cls, data: dict) -> BundleSlotSpec:
        return cls(op_offset=data["op_offset"], op_width=data["op_width"],
                   reg_offset=data["reg_offset"], reg_width=data["reg_width"])


@dataclass(frozen=True)
class BundleSpec:
    """Layout of the quantum-bundle word: the format-discriminator flag
    bit, the pre-interval field, and one slot layout per VLIW lane."""

    flag_bit: int
    pi_offset: int
    pi_width: int
    slots: tuple[BundleSlotSpec, ...]

    def to_dict(self) -> dict:
        return {"flag_bit": self.flag_bit, "pi_offset": self.pi_offset,
                "pi_width": self.pi_width,
                "slots": [s.to_dict() for s in self.slots]}

    @classmethod
    def from_dict(cls, data: dict) -> BundleSpec:
        return cls(flag_bit=data["flag_bit"], pi_offset=data["pi_offset"],
                   pi_width=data["pi_width"],
                   slots=tuple(BundleSlotSpec.from_dict(s)
                               for s in data["slots"]))


@dataclass(frozen=True)
class EncodingSpec:
    """A complete binary-format specification for one instantiation.

    ``opcode_offset``/``opcode_width`` locate the classical opcode field
    shared by every single-word format; ``formats`` enumerates those
    formats; ``bundle`` describes the quantum-bundle word (selected by
    ``bundle.flag_bit``; single-word formats keep that bit clear).
    """

    name: str
    instruction_width: int
    opcode_offset: int
    opcode_width: int
    formats: tuple[FormatSpec, ...]
    bundle: BundleSpec | None = None

    def format_named(self, name: str) -> FormatSpec | None:
        for fmt in self.formats:
            if fmt.name == name:
                return fmt
        return None

    def opcode_table(self) -> dict[int, FormatSpec]:
        return {fmt.opcode: fmt for fmt in self.formats}

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "instruction_width": self.instruction_width,
            "opcode_offset": self.opcode_offset,
            "opcode_width": self.opcode_width,
            "formats": [fmt.to_dict() for fmt in self.formats],
        }
        if self.bundle is not None:
            data["bundle"] = self.bundle.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> EncodingSpec:
        try:
            bundle = data.get("bundle")
            return cls(
                name=data["name"],
                instruction_width=data["instruction_width"],
                opcode_offset=data["opcode_offset"],
                opcode_width=data["opcode_width"],
                formats=tuple(FormatSpec.from_dict(fmt)
                              for fmt in data["formats"]),
                bundle=BundleSpec.from_dict(bundle) if bundle else None,
            )
        except (KeyError, TypeError) as exc:
            raise SpecError(f"malformed encoding spec: {exc}") from exc

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @classmethod
    def from_json(cls, text: str) -> EncodingSpec:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"encoding spec is not valid JSON: {exc}") \
                from exc
        if not isinstance(data, dict):
            raise SpecError("encoding spec JSON must be an object")
        return cls.from_dict(data)
