"""Tests for binary encoding/decoding, including Fig. 8 layouts and
property-based round trips."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.encoding import InstructionDecoder, InstructionEncoder
from repro.core.errors import EncodingError
from repro.core.instructions import (
    ArithOp,
    Br,
    Bundle,
    BundleOperation,
    Cmp,
    Fbr,
    Fmr,
    Ld,
    Ldi,
    Ldui,
    LogicalOp,
    Nop,
    Not,
    QWait,
    QWaitR,
    SMIS,
    SMIT,
    St,
    Stop,
)
from repro.core.isa import seven_qubit_instantiation
from repro.core.isaspec import FAMILY_OPCODES
from repro.core.registers import ComparisonFlag


@pytest.fixture(scope="module")
def isa():
    return seven_qubit_instantiation()


@pytest.fixture(scope="module")
def encoder(isa):
    return InstructionEncoder(isa)


@pytest.fixture(scope="module")
def decoder(isa):
    return InstructionDecoder(isa)


class TestFig8Layouts:
    """Bit-exact checks of the quantum-instruction formats."""

    def test_smis_layout(self, encoder):
        word = encoder.encode(SMIS(sd=7, qubits=frozenset({0, 2})))
        assert (word >> 31) == 0
        assert (word >> 25) & 0x3F == FAMILY_OPCODES["SMIS"]
        assert (word >> 20) & 0x1F == 7          # Sd
        assert word & 0x7F == 0b0000101          # 7-bit qubit mask

    def test_smit_layout(self, isa, encoder):
        word = encoder.encode(SMIT(td=3, pairs=frozenset({(2, 0)})))
        assert (word >> 31) == 0
        assert (word >> 25) & 0x3F == FAMILY_OPCODES["SMIT"]
        assert (word >> 20) & 0x1F == 3          # Td
        assert word & 0xFFFF == 1 << 0           # edge 0 = (2, 0)

    def test_qwait_layout(self, encoder):
        word = encoder.encode(QWait(cycles=10000))
        assert (word >> 25) & 0x3F == FAMILY_OPCODES["QWAIT"]
        assert word & 0xFFFFF == 10000           # 20-bit immediate

    def test_qwaitr_layout(self, encoder):
        word = encoder.encode(QWaitR(rs=9))
        assert (word >> 25) & 0x3F == FAMILY_OPCODES["QWAITR"]
        assert (word >> 15) & 0x1F == 9          # Rs field

    def test_bundle_layout(self, isa, encoder):
        bundle = Bundle(operations=(
            BundleOperation("X90", ("S", 0)),
            BundleOperation("X", ("S", 2)),
        ), pi=1)
        word = encoder.encode(bundle)
        assert (word >> 31) == 1                 # bundle flag
        assert (word >> 22) & 0x1FF == isa.operations.opcode("X90")
        assert (word >> 17) & 0x1F == 0          # S0
        assert (word >> 8) & 0x1FF == isa.operations.opcode("X")
        assert (word >> 3) & 0x1F == 2           # S2
        assert word & 0x7 == 1                   # PI

    def test_bundle_qnop_fill(self, isa, encoder):
        bundle = Bundle(operations=(BundleOperation("Y", ("S", 7)),), pi=0)
        word = encoder.encode(bundle)
        assert (word >> 8) & 0x1FF == 0          # QNOP opcode in slot 1
        assert word & 0x7 == 0


class TestEncodingErrors:
    def test_qwait_overflow(self, encoder):
        with pytest.raises(EncodingError):
            encoder.encode(QWait(cycles=1 << 20))

    def test_pi_overflow(self, encoder):
        bundle = Bundle(operations=(BundleOperation("X", ("S", 0)),), pi=8)
        with pytest.raises(EncodingError):
            encoder.encode(bundle)

    def test_unresolved_label(self, encoder):
        with pytest.raises(EncodingError):
            encoder.encode(Br(condition=ComparisonFlag.EQ, target="label"))

    def test_over_wide_bundle(self, encoder):
        operations = tuple(BundleOperation("X", ("S", i)) for i in range(3))
        with pytest.raises(EncodingError):
            encoder.encode(Bundle(operations=operations, pi=0))

    def test_wrong_register_kind(self, encoder):
        bundle = Bundle(operations=(BundleOperation("CZ", ("S", 0)),), pi=0)
        with pytest.raises(EncodingError):
            encoder.encode(bundle)

    def test_ldi_immediate_overflow(self, encoder):
        with pytest.raises(EncodingError):
            encoder.encode(Ldi(rd=0, imm=1 << 19))

    def test_qnop_with_register(self, encoder):
        bundle = Bundle(operations=(BundleOperation("QNOP", ("S", 0)),),
                        pi=0)
        with pytest.raises(EncodingError):
            encoder.encode(bundle)

    def test_unknown_operation(self, encoder):
        bundle = Bundle(operations=(BundleOperation("WIBBLE", ("S", 0)),),
                        pi=0)
        with pytest.raises(Exception):
            encoder.encode(bundle)


def roundtrip(encoder, decoder, instruction):
    word = encoder.encode(instruction)
    decoded = decoder.decode(word)
    assert decoded == instruction
    # And the word re-encodes identically.
    assert encoder.encode(decoded) == word


class TestRoundTripExamples:
    def test_classical_instructions(self, encoder, decoder):
        for instruction in [
            Nop(), Stop(),
            Cmp(rs=1, rt=2),
            Br(condition=ComparisonFlag.EQ, target=5),
            Br(condition=ComparisonFlag.ALWAYS, target=-3),
            Fbr(condition=ComparisonFlag.LT, rd=9),
            Ldi(rd=0, imm=1),
            Ldi(rd=1, imm=-1),
            Ldui(rd=2, imm=0x7FFF, rs=2),
            Ld(rd=3, rt=4, imm=-16),
            St(rs=5, rt=6, imm=12),
            Fmr(rd=7, qubit=1),
            LogicalOp("AND", 1, 2, 3),
            LogicalOp("OR", 4, 5, 6),
            LogicalOp("XOR", 7, 8, 9),
            Not(rd=10, rt=11),
            ArithOp("ADD", 12, 13, 14),
            ArithOp("SUB", 15, 16, 17),
        ]:
            roundtrip(encoder, decoder, instruction)

    def test_quantum_instructions(self, encoder, decoder):
        for instruction in [
            QWait(cycles=0),
            QWait(cycles=10000),
            QWaitR(rs=0),
            SMIS(sd=7, qubits=frozenset({0, 2})),
            SMIS(sd=31, qubits=frozenset({0, 1, 2, 3, 4, 5, 6})),
            SMIT(td=3, pairs=frozenset({(2, 0)})),
            SMIT(td=0, pairs=frozenset({(2, 0), (1, 3)})),
        ]:
            roundtrip(encoder, decoder, instruction)

    def test_bundle_roundtrip_with_explicit_qnop(self, encoder, decoder):
        bundle = Bundle(operations=(
            BundleOperation("MEASZ", ("S", 7)),
            BundleOperation("QNOP", None),
        ), pi=1)
        roundtrip(encoder, decoder, bundle)

    def test_two_qubit_bundle(self, encoder, decoder):
        bundle = Bundle(operations=(
            BundleOperation("CZ", ("T", 3)),
            BundleOperation("QNOP", None),
        ), pi=0)
        roundtrip(encoder, decoder, bundle)


# ----------------------------------------------------------------------
# Property-based round trips
# ----------------------------------------------------------------------
_ISA = seven_qubit_instantiation()
_ENC = InstructionEncoder(_ISA)
_DEC = InstructionDecoder(_ISA)

gpr = st.integers(min_value=0, max_value=31)
flag = st.sampled_from(list(ComparisonFlag))
single_names = st.sampled_from(["I", "X", "Y", "X90", "Y90", "XM90",
                                "YM90", "H", "MEASZ", "C_X"])


@st.composite
def classical_instructions(draw):
    choice = draw(st.integers(min_value=0, max_value=9))
    if choice == 0:
        return Ldi(rd=draw(gpr),
                   imm=draw(st.integers(-(1 << 19), (1 << 19) - 1)))
    if choice == 1:
        return Br(condition=draw(flag),
                  target=draw(st.integers(-(1 << 20), (1 << 20) - 1)))
    if choice == 2:
        return Cmp(rs=draw(gpr), rt=draw(gpr))
    if choice == 3:
        return LogicalOp(draw(st.sampled_from(["AND", "OR", "XOR"])),
                         rd=draw(gpr), rs=draw(gpr), rt=draw(gpr))
    if choice == 4:
        return ArithOp(draw(st.sampled_from(["ADD", "SUB"])),
                       rd=draw(gpr), rs=draw(gpr), rt=draw(gpr))
    if choice == 5:
        return Ld(rd=draw(gpr), rt=draw(gpr),
                  imm=draw(st.integers(-(1 << 14), (1 << 14) - 1)))
    if choice == 6:
        return St(rs=draw(gpr), rt=draw(gpr),
                  imm=draw(st.integers(-(1 << 14), (1 << 14) - 1)))
    if choice == 7:
        return Fmr(rd=draw(gpr),
                   qubit=draw(st.sampled_from(_ISA.topology.qubits)))
    if choice == 8:
        return Ldui(rd=draw(gpr), rs=draw(gpr),
                    imm=draw(st.integers(0, (1 << 15) - 1)))
    return Fbr(condition=draw(flag), rd=draw(gpr))


@st.composite
def quantum_instructions(draw):
    choice = draw(st.integers(min_value=0, max_value=3))
    if choice == 0:
        return QWait(cycles=draw(st.integers(0, (1 << 20) - 1)))
    if choice == 1:
        return QWaitR(rs=draw(gpr))
    if choice == 2:
        qubits = draw(st.sets(st.sampled_from(_ISA.topology.qubits),
                              min_size=1))
        return SMIS(sd=draw(gpr), qubits=frozenset(qubits))
    # SMIT with non-conflicting pairs: sample disjoint edges.
    edges = list(_ISA.topology.pairs)
    first = draw(st.sampled_from(edges))
    pairs = {first.as_tuple()}
    return SMIT(td=draw(gpr), pairs=frozenset(pairs))


@st.composite
def bundles(draw):
    num_ops = draw(st.integers(1, 2))
    operations = []
    used = set()
    for _ in range(num_ops):
        name = draw(single_names)
        index = draw(st.integers(0, 31))
        operations.append(BundleOperation(name, ("S", index)))
    return Bundle(operations=tuple(operations),
                  pi=draw(st.integers(0, 7)))


class TestRoundTripProperties:
    @given(classical_instructions())
    @settings(max_examples=200, deadline=None)
    def test_classical_roundtrip(self, instruction):
        roundtrip(_ENC, _DEC, instruction)

    @given(quantum_instructions())
    @settings(max_examples=200, deadline=None)
    def test_quantum_roundtrip(self, instruction):
        roundtrip(_ENC, _DEC, instruction)

    @given(bundles())
    @settings(max_examples=200, deadline=None)
    def test_bundle_words_decode_and_reencode(self, bundle):
        word = _ENC.encode(bundle)
        decoded = _DEC.decode(word)
        assert _ENC.encode(decoded) == word
        # Operation names and PI survive.
        assert decoded.pi == bundle.pi
        names = [op.name for op in decoded.operations
                 if op.name != "QNOP"]
        assert names == [op.name for op in bundle.operations
                         if op.name != "QNOP"]

    @given(st.integers(0, (1 << 32) - 1))
    @settings(max_examples=300, deadline=None)
    def test_decode_never_crashes_unexpectedly(self, word):
        """Decoding arbitrary words either succeeds or raises the
        library's decoding/configuration errors, never e.g. KeyError."""
        from repro.core.errors import EQASMError
        try:
            _DEC.decode(word)
        except EQASMError:
            pass
