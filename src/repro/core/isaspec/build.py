"""Generate the paper's field-layout family at any word width.

:func:`build_encoding_spec` emits the layout rule set that Fig. 8 of
the paper is the 32-bit member of: classical formats keep fixed low-bit
positions, the 6-bit opcode sits just below the bundle flag bit, the
SMIS/SMIT target-register fields sit 12 bits below the word top with
their masks in the bits underneath, and bundle slots pack downward from
the flag bit.  Registered instantiations ship as checked-in JSON dumps
of this builder's output (see :mod:`.registry`).  An
:class:`~repro.core.isa.EQASMInstantiation` takes its spec as a value
and reads every width from it, so an ad-hoc format (tests,
experiments) is a call of this builder passed as ``encoding_spec``.
"""

from __future__ import annotations

from repro.core.errors import SpecError
from repro.core.isaspec.model import (
    BundleSlotSpec,
    BundleSpec,
    EncodingSpec,
    FieldSpec,
    FormatSpec,
)

#: Single-format opcode assignments shared by the whole family (the
#: paper's Fig. 8 plus our MIPS-like classical layout).
FAMILY_OPCODES = {
    "NOP": 0,
    "STOP": 1,
    "CMP": 2,
    "BR": 3,
    "FBR": 4,
    "LDI": 5,
    "LDUI": 6,
    "LD": 7,
    "ST": 8,
    "FMR": 9,
    "AND": 10,
    "OR": 11,
    "XOR": 12,
    "NOT": 13,
    "ADD": 14,
    "SUB": 15,
    "SMIS": 16,
    "SMIT": 17,
    "QWAIT": 18,
    "QWAITR": 19,
}


def build_encoding_spec(
        name: str,
        instruction_width: int,
        *,
        qubit_mask_field_width: int = 7,
        pair_mask_field_width: int = 16,
        qwait_immediate_width: int = 20,
        q_opcode_width: int = 9,
        target_register_address_width: int = 5,
        vliw_width: int = 2,
        pi_width: int = 3,
        fmr_qubit_offset: int = 15,
        fmr_qubit_width: int = 5,
) -> EncodingSpec:
    """Build the family layout for one instantiation's parameters.

    ``fmr_qubit_offset``/``fmr_qubit_width`` size the FMR Qi field —
    chips with more than 32 qubits need a wider field (the surface-49
    spec uses 6 bits at offset 14 so Qi stays clear of Rd at bit 20).
    """
    width = instruction_width
    if width % 8 or width < 32:
        raise SpecError(
            f"instruction width {width} must be a multiple of 8 bits, "
            f"at least 32")
    target_shift = width - 12  # SMIS Sd / SMIT Td live here (Fig. 8)
    treg = target_register_address_width

    def fmt(name: str, *fields: FieldSpec) -> FormatSpec:
        return FormatSpec(name=name, opcode=FAMILY_OPCODES[name],
                          fields=fields)

    formats = (
        fmt("NOP"),
        fmt("STOP"),
        fmt("CMP",
            FieldSpec("Rs", "rs", 15, 5),
            FieldSpec("Rt", "rt", 10, 5)),
        fmt("BR",
            FieldSpec("cond", "condition", 21, 4, "condition"),
            FieldSpec("offset", "target", 0, 21, "branch_offset")),
        fmt("FBR",
            FieldSpec("cond", "condition", 21, 4, "condition"),
            FieldSpec("Rd", "rd", 16, 5)),
        fmt("LDI",
            FieldSpec("Rd", "rd", 20, 5),
            FieldSpec("imm", "imm", 0, 20, "int")),
        fmt("LDUI",
            FieldSpec("Rd", "rd", 20, 5),
            FieldSpec("Rs", "rs", 15, 5),
            FieldSpec("imm", "imm", 0, 15)),
        fmt("LD",
            FieldSpec("Rd", "rd", 20, 5),
            FieldSpec("Rt", "rt", 15, 5),
            FieldSpec("imm", "imm", 0, 15, "int")),
        fmt("ST",
            FieldSpec("Rs", "rs", 20, 5),
            FieldSpec("Rt", "rt", 15, 5),
            FieldSpec("imm", "imm", 0, 15, "int")),
        fmt("FMR",
            FieldSpec("Rd", "rd", 20, 5),
            FieldSpec("Qi", "qubit", fmr_qubit_offset, fmr_qubit_width)),
        fmt("AND",
            FieldSpec("Rd", "rd", 20, 5),
            FieldSpec("Rs", "rs", 15, 5),
            FieldSpec("Rt", "rt", 10, 5)),
        fmt("OR",
            FieldSpec("Rd", "rd", 20, 5),
            FieldSpec("Rs", "rs", 15, 5),
            FieldSpec("Rt", "rt", 10, 5)),
        fmt("XOR",
            FieldSpec("Rd", "rd", 20, 5),
            FieldSpec("Rs", "rs", 15, 5),
            FieldSpec("Rt", "rt", 10, 5)),
        fmt("NOT",
            FieldSpec("Rd", "rd", 20, 5),
            FieldSpec("Rt", "rt", 10, 5)),
        fmt("ADD",
            FieldSpec("Rd", "rd", 20, 5),
            FieldSpec("Rs", "rs", 15, 5),
            FieldSpec("Rt", "rt", 10, 5)),
        fmt("SUB",
            FieldSpec("Rd", "rd", 20, 5),
            FieldSpec("Rs", "rs", 15, 5),
            FieldSpec("Rt", "rt", 10, 5)),
        fmt("SMIS",
            FieldSpec("Sd", "sd", target_shift, treg, "sreg"),
            FieldSpec("mask", "qubits", 0, qubit_mask_field_width,
                      "qubit_mask")),
        fmt("SMIT",
            FieldSpec("Td", "td", target_shift, treg, "treg"),
            FieldSpec("mask", "pairs", 0, pair_mask_field_width,
                      "pair_mask")),
        fmt("QWAIT",
            FieldSpec("imm", "cycles", 0, qwait_immediate_width)),
        fmt("QWAITR",
            FieldSpec("Rs", "rs", 15, 5)),
    )

    # Bundle slots pack downward from the flag bit: per lane, first the
    # q opcode, then the target-register index.  At width 32 this lands
    # the lane-0/1 fields at 22/17/8/3 — exactly Fig. 8.
    slots = []
    cursor = width - 1
    for _ in range(vliw_width):
        cursor -= q_opcode_width
        op_offset = cursor
        cursor -= target_register_address_width
        slots.append(BundleSlotSpec(
            op_offset=op_offset, op_width=q_opcode_width,
            reg_offset=cursor, reg_width=target_register_address_width))
    bundle = BundleSpec(flag_bit=width - 1, pi_offset=0,
                        pi_width=pi_width, slots=tuple(slots))

    return EncodingSpec(
        name=name,
        instruction_width=width,
        opcode_offset=width - 7,
        opcode_width=6,
        formats=formats,
        bundle=bundle,
    )
