"""Field codecs: how each spec field's raw bits map to an instruction
attribute.

The spec model (:mod:`.model`) is pure data; :data:`CODECS` supplies
the code the generic encoder/decoder interprets it with: codec name ->
(encode, decode) pair translating an instruction attribute value
to/from the raw unsigned field value.  Codecs receive the
instantiation so mask codecs can consult the topology and register
codecs the register-file sizes.  Which class a format's fields belong
to is the instruction table's business
(:data:`repro.core.instructions.MNEMONICS`).
"""

from __future__ import annotations

from typing import Callable

from repro.core.errors import DecodingError, EncodingError
from repro.core.isaspec.model import FieldSpec
from repro.core.registers import ComparisonFlag


# ----------------------------------------------------------------------
# Field codecs
# ----------------------------------------------------------------------
def check_field(name: str, value: int, width: int) -> int:
    """Validate an unsigned field value against its width."""
    if not isinstance(value, int) or not 0 <= value < (1 << width):
        raise EncodingError(
            f"{name} value {value} does not fit in {width} bits")
    return value


def check_signed_field(name: str, value: int, width: int) -> int:
    """Validate and two's-complement encode a signed field value."""
    low = -(1 << (width - 1))
    high = (1 << (width - 1)) - 1
    if not low <= value <= high:
        raise EncodingError(
            f"{name} value {value} outside signed {width}-bit range "
            f"[{low}, {high}]")
    return value & ((1 << width) - 1)


def sign_extend(value: int, width: int) -> int:
    """Decode a two's-complement field of the given width."""
    if value & (1 << (width - 1)):
        return value - (1 << width)
    return value


def _encode_uint(isa, field: FieldSpec, value):
    return check_field(field.name, value, field.width)


def _decode_uint(isa, field: FieldSpec, raw: int):
    return raw


def _encode_int(isa, field: FieldSpec, value):
    return check_signed_field(field.name, value, field.width)


def _decode_int(isa, field: FieldSpec, raw: int):
    return sign_extend(raw, field.width)


def _encode_branch_offset(isa, field: FieldSpec, value):
    if isinstance(value, str):
        raise EncodingError(f"BR target label {value!r} not resolved")
    return check_signed_field(field.name, value, field.width)


def _encode_condition(isa, field: FieldSpec, value):
    return check_field(field.name, int(value), field.width)


def _decode_condition(isa, field: FieldSpec, raw: int):
    try:
        return ComparisonFlag(raw)
    except ValueError:
        raise DecodingError(f"invalid comparison-flag encoding {raw}")


def _encode_qubit_mask(isa, field: FieldSpec, value):
    return check_field(field.name, isa.qubit_mask(value), field.width)


def _decode_qubit_mask(isa, field: FieldSpec, raw: int):
    qubits = isa.qubits_from_mask(raw)
    if not qubits:
        raise DecodingError("SMIS with empty mask")
    return frozenset(qubits)


def _encode_pair_mask(isa, field: FieldSpec, value):
    return check_field(field.name, isa.pair_mask(value), field.width)


def _decode_pair_mask(isa, field: FieldSpec, raw: int):
    pairs = isa.pairs_from_mask(raw)
    if not pairs:
        raise DecodingError("SMIT with empty mask")
    return frozenset(pairs)


def _encode_sreg(isa, field: FieldSpec, value):
    if not isinstance(value, int) or not 0 <= value < \
            isa.num_single_qubit_target_registers:
        raise EncodingError(f"S{value} out of range")
    return check_field(field.name, value, field.width)


def _encode_treg(isa, field: FieldSpec, value):
    if not isinstance(value, int) or not 0 <= value < \
            isa.num_two_qubit_target_registers:
        raise EncodingError(f"T{value} out of range")
    return check_field(field.name, value, field.width)


#: Codec name -> (encode, decode).  encode(isa, field, attribute_value)
#: returns the raw unsigned field value (raising
#: :class:`~repro.core.errors.EncodingError` on domain violations);
#: decode(isa, field, raw) is its inverse (raising
#: :class:`~repro.core.errors.DecodingError` on unrepresentable words).
CODECS: dict[str, tuple[Callable, Callable]] = {
    "uint": (_encode_uint, _decode_uint),
    "int": (_encode_int, _decode_int),
    "branch_offset": (_encode_branch_offset, _decode_int),
    "condition": (_encode_condition, _decode_condition),
    "qubit_mask": (_encode_qubit_mask, _decode_qubit_mask),
    "pair_mask": (_encode_pair_mask, _decode_pair_mask),
    "sreg": (_encode_sreg, _decode_uint),
    "treg": (_encode_treg, _decode_uint),
}
