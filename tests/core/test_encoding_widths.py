"""Width-parameterised instruction encoding.

The binary format scales with the instantiation's encoding spec:
the 32-bit layout must stay bit-for-bit what Fig. 8 defines (pinned by
``test_encoding.py``), and the 64-bit surface-17 instantiation must
round-trip every instruction class through the wider words.
"""

import numpy as np
import pytest

from repro.core import (
    Assembler,
    EQASMInstantiation,
    default_operation_set,
    rotated_surface_instantiation,
    seven_qubit_instantiation,
    two_qubit_instantiation,
)
from repro.core.encoding import InstructionDecoder, InstructionEncoder
from repro.core.errors import ConfigurationError, DecodingError
from repro.core.instructions import SMIS, SMIT
from repro.core.isaspec import build_encoding_spec, load_registered_spec
from repro.experiments.reset import FIG4_PROGRAM
from repro.quantum import NoiseModel, QuantumPlant
from repro.topology import rotated_surface_chip, two_qubit_chip
from repro.uarch import QuMAv2

SIXTY_FOUR_BIT_PROGRAM = """
SMIS S1, {9, 10, 11, 12}
SMIS S2, {0, 8, 16}
SMIT T0, {(9, 0), (10, 4)}
SMIT T1, {(16, 7)}
LDI R0, 1
LDI R5, -3
LDUI R5, 77, R5
QWAIT 10000
Y90 S1
QWAIT 5
CZ T0
QWAIT 2
CZ T1
QWAIT 50
MEASZ S1
QWAIT 50
FMR R1, Q9
CMP R1, R0
BR EQ, skip
C_X S1
skip:
ADD R2, R1, R0
ST R2, R0(4)
LD R3, R0(4)
QWAITR R0
QWAIT 50
STOP
"""


class TestSixtyFourBitRoundTrip:
    def test_assemble_decode_reencode(self):
        isa = rotated_surface_instantiation(3)
        assembled = Assembler(isa).assemble_text(SIXTY_FOUR_BIT_PROGRAM)
        decoder = InstructionDecoder(isa)
        encoder = InstructionEncoder(isa)
        decoded = [decoder.decode(word) for word in assembled.words]
        assert [encoder.encode(ins) for ins in decoded] == assembled.words

    def test_word_bytes_are_eight_per_word(self):
        isa = rotated_surface_instantiation(3)
        assembled = Assembler(isa).assemble_text(SIXTY_FOUR_BIT_PROGRAM)
        assert assembled.word_size == 8
        assert len(assembled.word_bytes()) == 8 * len(assembled.words)

    def test_wide_masks_encode(self):
        """Pair addresses past bit 31 — impossible in 32-bit words —
        must encode and decode exactly."""
        isa = rotated_surface_instantiation(3)
        encoder = InstructionEncoder(isa)
        decoder = InstructionDecoder(isa)
        # (8, 16) is the reverse of coupling (16, 8): address >= 24.
        smit = SMIT(td=3, pairs=frozenset({(8, 16)}))
        word = encoder.encode(smit)
        assert word >= (1 << 32)
        round_tripped = decoder.decode(word)
        assert isinstance(round_tripped, SMIT)
        assert round_tripped.td == 3
        assert round_tripped.pairs == smit.pairs

    def test_full_qubit_mask(self):
        isa = rotated_surface_instantiation(3)
        encoder = InstructionEncoder(isa)
        decoder = InstructionDecoder(isa)
        smis = SMIS(sd=31, qubits=frozenset(range(17)))
        round_tripped = decoder.decode(encoder.encode(smis))
        assert round_tripped.sd == 31
        assert round_tripped.qubits == smis.qubits

    def test_word_range_check_scales(self):
        decoder_32 = InstructionDecoder(seven_qubit_instantiation())
        with pytest.raises(DecodingError):
            decoder_32.decode(1 << 32)
        decoder_64 = InstructionDecoder(rotated_surface_instantiation(3))
        decoder_64.decode(1 << 33)   # in range for 64-bit words
        with pytest.raises(DecodingError):
            decoder_64.decode(1 << 64)


class TestInstantiationValidation:
    def test_pair_mask_must_fit_word(self):
        """A 48-bit pair mask cannot fit a 32-bit word — the
        instantiation must reject it up front."""
        with pytest.raises(ConfigurationError,
                           match="exceeds the 32-bit word"):
            EQASMInstantiation(
                name="bad", topology=rotated_surface_chip(3),
                operations=default_operation_set(),
                encoding_spec=build_encoding_spec(
                    "bad", 32, qubit_mask_field_width=17,
                    pair_mask_field_width=48))

    def test_two_qubit_chip_runs_on_a_wider_format(self):
        """The instantiation takes every width from its spec, so the
        two-qubit chip may use the 64-bit surface-17 format: Fig. 4's
        active reset then runs to the same counts as on Fig. 8's
        32-bit words."""

        def counts(isa):
            plant = QuantumPlant(isa.topology, noise=NoiseModel(),
                                 rng=np.random.default_rng(11))
            machine = QuMAv2(isa, plant)
            machine.load(Assembler(isa).assemble_text(FIG4_PROGRAM))
            return machine.run_counts(5000).as_dict()

        wide = EQASMInstantiation(
            name="eqasm-2q-64bit", topology=two_qubit_chip(),
            operations=default_operation_set(),
            encoding_spec=load_registered_spec("surface17-64bit"))
        assert wide.instruction_width == 64
        assert counts(wide) == counts(two_qubit_instantiation())

    def test_32bit_layout_unchanged(self):
        """The width-derived layout must reproduce Fig. 8 at 32 bits:
        Sd/Td at bit 20, bundle slots at 22/17/8/3."""
        isa = seven_qubit_instantiation()
        encoder = InstructionEncoder(isa)
        word = encoder.encode(SMIS(sd=5, qubits=frozenset({0, 2})))
        assert (word >> 20) & 0x1F == 5
        assert word & 0x7F == 0b101
