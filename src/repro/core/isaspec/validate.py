"""Spec validation: the invariants every registered spec must satisfy.

:func:`validate_spec` checks a pure-data :class:`~.model.EncodingSpec`
against the structural invariants listed in the package docstring —
field overlap (including the opcode field and bundle flag bit), width
coverage, opcode collisions and range, signed-field sanity, codec-name
validity, and per-format exhaustiveness against the instruction
taxonomy (:data:`repro.core.instructions.MNEMONICS`, the table the
parser reads, so a mnemonic the parser accepts and a spec cannot
encode fails validation).  It returns a list of
problem strings (empty = valid) so the CLI can print them all;
:func:`ensure_valid` wraps it into a raising form for programmatic use.
"""

from __future__ import annotations

import dataclasses

from repro.core.errors import SpecError
from repro.core.instructions import MNEMONICS
from repro.core.isaspec.bindings import CODECS
from repro.core.isaspec.model import EncodingSpec, FormatSpec

_SIGNED_CODECS = {"int", "branch_offset"}


def _required_attrs(format_name: str) -> frozenset[str]:
    """Constructor attributes the format's fields must supply: the
    bound class's no-default dataclass fields minus the fixed kwargs."""
    cls, fixed = MNEMONICS[format_name]
    required = {f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING}
    return frozenset(required - set(fixed))


def _field_regions(spec: EncodingSpec, fmt: FormatSpec):
    """(label, offset, width) occupancy of one single-word format,
    including the regions every format shares."""
    regions = [("opcode", spec.opcode_offset, spec.opcode_width)]
    if spec.bundle is not None:
        regions.append(("bundle flag bit", spec.bundle.flag_bit, 1))
    for field in fmt.fields:
        regions.append((f"field {field.name}", field.offset, field.width))
    return regions


def _overlaps(regions, width: int, context: str, problems: list[str]):
    """Report out-of-word regions and pairwise overlaps."""
    claimed: dict[int, str] = {}
    for label, offset, region_width in regions:
        if offset < 0 or region_width < 1:
            problems.append(
                f"{context}: {label} has invalid extent "
                f"(offset {offset}, width {region_width})")
            continue
        if offset + region_width > width:
            problems.append(
                f"{context}: {label} (bits {offset}..."
                f"{offset + region_width - 1}) exceeds the "
                f"{width}-bit word")
            continue
        for bit in range(offset, offset + region_width):
            if bit in claimed:
                problems.append(
                    f"{context}: {label} overlaps {claimed[bit]} "
                    f"at bit {bit}")
                break
            claimed[bit] = label


def validate_spec(spec: EncodingSpec) -> list[str]:
    """Validate one spec; returns problem descriptions (empty = valid)."""
    problems: list[str] = []
    width = spec.instruction_width

    if width % 8 or width < 32:
        problems.append(
            f"instruction width {width} must be a multiple of 8 bits, "
            f"at least 32")

    # Opcode numbering: in range, collision-free.
    seen_opcodes: dict[int, str] = {}
    seen_names: set[str] = set()
    for fmt in spec.formats:
        if fmt.name in seen_names:
            problems.append(f"format {fmt.name} defined twice")
        seen_names.add(fmt.name)
        if not 0 <= fmt.opcode < (1 << spec.opcode_width):
            problems.append(
                f"format {fmt.name}: opcode {fmt.opcode} does not fit "
                f"the {spec.opcode_width}-bit opcode field")
        elif fmt.opcode in seen_opcodes:
            problems.append(
                f"opcode collision: {fmt.name} and "
                f"{seen_opcodes[fmt.opcode]} both use {fmt.opcode}")
        else:
            seen_opcodes[fmt.opcode] = fmt.name

    # Exhaustiveness against the instruction taxonomy, both directions.
    for missing in sorted(MNEMONICS.keys() - seen_names):
        problems.append(
            f"spec does not cover instruction format {missing}")
    for unknown in sorted(seen_names - MNEMONICS.keys()):
        problems.append(
            f"format {unknown} has no instruction-class binding")

    # Per-format field checks.
    for fmt in spec.formats:
        _overlaps(_field_regions(spec, fmt), width,
                  f"format {fmt.name}", problems)
        attrs: set[str] = set()
        for field in fmt.fields:
            if field.codec not in CODECS:
                problems.append(
                    f"format {fmt.name}: field {field.name} uses "
                    f"unknown codec {field.codec!r}")
            if field.codec in _SIGNED_CODECS and field.width < 2:
                problems.append(
                    f"format {fmt.name}: signed field {field.name} "
                    f"needs at least 2 bits, has {field.width}")
            if field.attr in attrs:
                problems.append(
                    f"format {fmt.name}: attribute {field.attr} bound "
                    f"by two fields")
            attrs.add(field.attr)
        if fmt.name in MNEMONICS:
            needed = _required_attrs(fmt.name)
            for attr in sorted(needed - attrs):
                problems.append(
                    f"format {fmt.name}: no field binds required "
                    f"attribute {attr}")
            for attr in sorted(attrs - needed):
                cls, fixed = MNEMONICS[fmt.name]
                if attr not in {f.name for f in dataclasses.fields(cls)}:
                    problems.append(
                        f"format {fmt.name}: field binds unknown "
                        f"attribute {attr} of {cls.__name__}")

    # Bundle layout.
    if spec.bundle is not None:
        bundle = spec.bundle
        if bundle.flag_bit != width - 1:
            problems.append(
                f"bundle flag bit {bundle.flag_bit} must be the word's "
                f"top bit ({width - 1}) to discriminate formats")
        if not bundle.slots:
            problems.append("bundle has no VLIW slots")
        regions = [("PI", bundle.pi_offset, bundle.pi_width)]
        for index, slot in enumerate(bundle.slots):
            regions.append(
                (f"slot {index} opcode", slot.op_offset, slot.op_width))
            regions.append(
                (f"slot {index} register", slot.reg_offset,
                 slot.reg_width))
        # The flag bit itself is part of the bundle word.
        _overlaps(regions + [("flag bit", bundle.flag_bit, 1)], width,
                  "bundle", problems)

    return problems


def ensure_valid(spec: EncodingSpec) -> EncodingSpec:
    """Raise :class:`~repro.core.errors.SpecError` on an invalid spec."""
    problems = validate_spec(spec)
    if problems:
        raise SpecError(
            f"encoding spec {spec.name!r} failed validation:\n  " +
            "\n  ".join(problems))
    return spec
