"""Spec-generated encoding properties for every registered instantiation.

The strategies below are derived *from the encoding spec itself*: for
each registered instantiation, for each single-word format, arbitrary
in-range values for every field (per its codec) must encode and decode
as exact inverses.  A new spec value — a new width, a moved field, a
wider mask — gets property coverage with zero new test code, which is
the point of formats-as-data.  Subsumes the hand-enumerated width
tests in ``test_encoding_widths.py`` and extends them to the 192-bit
surface-49 instantiation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoding import InstructionDecoder, InstructionEncoder
from repro.core.isa import (
    rotated_surface_instantiation,
    seven_qubit_instantiation,
    two_qubit_instantiation,
)
from repro.core.instructions import MNEMONICS
from repro.core.instructions import Bundle, BundleOperation
from repro.core.registers import ComparisonFlag

ISAS = {
    isa.name: isa
    for isa in (
        seven_qubit_instantiation(),
        rotated_surface_instantiation(3),
        rotated_surface_instantiation(5),
        two_qubit_instantiation(),
    )
}

CODERS = {name: (InstructionEncoder(isa), InstructionDecoder(isa))
          for name, isa in ISAS.items()}

FORMAT_CASES = [(isa_name, fmt.name)
                for isa_name, isa in ISAS.items()
                for fmt in isa.encoding_spec.formats]


def field_strategy(isa, field):
    """An in-range value strategy for one spec field, per its codec."""
    if field.codec == "uint":
        return st.integers(0, (1 << field.width) - 1)
    if field.codec in ("int", "branch_offset"):
        half = 1 << (field.width - 1)
        return st.integers(-half, half - 1)
    if field.codec == "condition":
        return st.sampled_from(sorted(ComparisonFlag))
    if field.codec == "qubit_mask":
        return st.sets(st.sampled_from(isa.topology.qubits),
                       min_size=1).map(frozenset)
    if field.codec == "pair_mask":
        pairs = [pair.as_tuple() for pair in isa.topology.pairs]
        return st.sets(st.sampled_from(pairs), min_size=1).map(frozenset)
    if field.codec == "sreg":
        return st.integers(0, min(1 << field.width,
                                  isa.num_single_qubit_target_registers)
                           - 1)
    if field.codec == "treg":
        return st.integers(0, min(1 << field.width,
                                  isa.num_two_qubit_target_registers)
                           - 1)
    raise AssertionError(f"no strategy for codec {field.codec!r}")


@pytest.mark.parametrize("isa_name,format_name", FORMAT_CASES)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_format_roundtrips_in_range_values(isa_name, format_name, data):
    isa = ISAS[isa_name]
    encoder, decoder = CODERS[isa_name]
    fmt = isa.encoding_spec.format_named(format_name)
    cls, fixed = MNEMONICS[format_name]
    kwargs = dict(fixed)
    for field in fmt.fields:
        kwargs[field.attr] = data.draw(field_strategy(isa, field),
                                       label=field.name)
    instruction = cls(**kwargs)
    word = encoder.encode(instruction)
    assert 0 <= word < (1 << isa.instruction_width)
    # Single-word formats never set the bundle flag bit.
    assert not (word >> isa.encoding_spec.bundle.flag_bit) & 1
    decoded = decoder.decode(word)
    assert decoded == instruction
    assert encoder.encode(decoded) == word


_SINGLE_OPS = ["I", "X", "Y", "X90", "Y90", "XM90", "YM90", "H",
               "MEASZ", "C_X"]


@pytest.mark.parametrize("isa_name", sorted(ISAS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_bundle_roundtrips_at_every_width(isa_name, data):
    isa = ISAS[isa_name]
    encoder, decoder = CODERS[isa_name]
    bundle_spec = isa.encoding_spec.bundle
    operations = []
    for index in range(len(bundle_spec.slots)):
        name = data.draw(st.sampled_from(["QNOP", "CZ"] + _SINGLE_OPS),
                         label=f"slot {index}")
        if name == "QNOP":
            operations.append(BundleOperation(name, None))
        elif name == "CZ":
            td = data.draw(st.integers(
                0, isa.num_two_qubit_target_registers - 1))
            operations.append(BundleOperation(name, ("T", td)))
        else:
            sd = data.draw(st.integers(
                0, isa.num_single_qubit_target_registers - 1))
            operations.append(BundleOperation(name, ("S", sd)))
    bundle = Bundle(operations=tuple(operations),
                    pi=data.draw(st.integers(0, isa.max_pi)),
                    explicit_pi=True)
    word = encoder.encode(bundle)
    assert (word >> bundle_spec.flag_bit) & 1
    decoded = decoder.decode(word)
    assert decoded == bundle
    assert encoder.encode(decoded) == word
