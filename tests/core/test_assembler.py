"""Tests for the assembler: validation, bundle splitting, label
resolution, encode/disassemble round trips."""

import dataclasses

import pytest

from repro.core.assembler import Assembler, Disassembler
from repro.core.errors import AssemblyError
from repro.core.instructions import (
    Br,
    Bundle,
    BundleOperation,
    QWait,
    SMIS,
)
from repro.core.isa import seven_qubit_instantiation, two_qubit_instantiation
from repro.core.program import Program
from repro.core.registers import ComparisonFlag


@pytest.fixture(scope="module")
def isa():
    return seven_qubit_instantiation()


@pytest.fixture(scope="module")
def assembler(isa):
    return Assembler(isa)


class TestValidation:
    def test_unknown_operation_rejected(self, assembler):
        with pytest.raises(Exception):
            assembler.assemble_text("WIBBLE S0")

    def test_gpr_out_of_range(self, assembler):
        with pytest.raises(AssemblyError):
            assembler.assemble_text("LDI R32, 1")

    @pytest.mark.parametrize("line", ["LDI R16, 1", "CMP R0, R16",
                                      "LD R0, R16(0)", "QWAITR R16"])
    def test_gpr_beyond_a_smaller_register_file(self, isa, line):
        # R16 fits the 5-bit register fields, so only the register
        # file size rejects it.
        small = Assembler(dataclasses.replace(isa, num_gprs=16))
        with pytest.raises(AssemblyError, match="R16 out of range"):
            small.assemble_text(line)

    def test_off_chip_qubit_in_smis(self, assembler):
        with pytest.raises(Exception):
            assembler.assemble_text("SMIS S0, {9}")

    def test_illegal_pair_rejected(self, assembler):
        # (0, 6) is not an edge of the surface-7 chip.
        with pytest.raises(Exception):
            assembler.assemble_text("SMIT T0, {(0, 6)}")

    def test_conflicting_pairs_rejected(self, assembler):
        # Edges (2,0) and (0,3) share qubit 0 — invalid T register value
        # (Section 4.3).
        with pytest.raises(Exception):
            assembler.assemble_text("SMIT T0, {(2, 0), (0, 3)}")

    def test_fmr_unknown_qubit(self, assembler):
        with pytest.raises(AssemblyError):
            assembler.assemble_text("FMR R0, Q9")

    def test_two_qubit_op_with_s_register(self, assembler):
        with pytest.raises(AssemblyError):
            assembler.assemble_text("CZ S0")

    def test_single_qubit_op_with_t_register(self, assembler):
        with pytest.raises(AssemblyError):
            assembler.assemble_text("X T0")

    def test_undefined_label(self, assembler):
        with pytest.raises(AssemblyError):
            assembler.assemble_text("BR ALWAYS, nowhere")

    def test_qwait_too_large(self, assembler):
        with pytest.raises(AssemblyError):
            assembler.assemble_text(f"QWAIT {1 << 20}")

    @pytest.mark.parametrize("line", ["LD R1, R2(16384)",
                                      "LD R1, R2(-16385)",
                                      "ST R1, R2(16384)",
                                      "ST R1, R2(-16385)"])
    def test_memory_immediate_overflow(self, assembler, line):
        # The 15-bit signed LD/ST immediate: the encoder's range check
        # names the instruction like every other assembly fault.
        with pytest.raises(AssemblyError) as excinfo:
            assembler.assemble_text(f"NOP\n{line}")
        assert f"instruction 1 ({line})" in str(excinfo.value)

    def test_error_message_includes_instruction(self, assembler):
        with pytest.raises(AssemblyError) as excinfo:
            assembler.assemble_text("NOP\nLDI R32, 1")
        assert "LDI" in str(excinfo.value)


class TestBundleSplitting:
    def test_narrow_bundle_untouched(self, assembler):
        program = Program.from_text("1, X90 S0 | X S2")
        split = assembler.split_bundles(program)
        assert len(split.instructions) == 1

    def test_wide_bundle_split(self, assembler):
        # Paper example (Section 3.4.2): three ops at VLIW width 2
        # become two instructions, the second with PI 0 + QNOP fill.
        program = Program.from_text("3, X S5 | H S6 | CZ T3")
        split = assembler.split_bundles(program)
        assert len(split.instructions) == 2
        first, second = split.instructions
        assert isinstance(first, Bundle) and isinstance(second, Bundle)
        assert first.pi == 3
        assert [op.name for op in first.operations] == ["X", "H"]
        assert second.pi == 0
        assert [op.name for op in second.operations] == ["CZ", "QNOP"]

    def test_five_ops_become_three_words(self, assembler):
        text = "1, X S0 | X S1 | X S2 | X S3 | X S4"
        program = Program.from_text(text)
        split = assembler.split_bundles(program)
        assert len(split.instructions) == 3
        assert split.instructions[2].operations[1].name == "QNOP"

    def test_oversized_pi_hoisted_to_qwait(self, assembler):
        program = Program.from_text("9, X S0")
        split = assembler.split_bundles(program)
        assert isinstance(split.instructions[0], QWait)
        assert split.instructions[0].cycles == 9
        assert split.instructions[1].pi == 0

    def test_labels_remapped_after_split(self, assembler):
        text = """
        start:
        1, X S0 | X S1 | X S2
        loop:
        BR ALWAYS, loop
        """
        program = Program.from_text(text)
        split = assembler.split_bundles(program)
        assert split.labels["start"] == 0
        # The wide bundle became 2 words, so "loop" moved to index 2.
        assert split.labels["loop"] == 2

    def test_trailing_label_remapped(self, assembler):
        text = """
        3, X S0 | X S1 | X S2
        end:
        """
        program = Program.from_text(text)
        split = assembler.split_bundles(program)
        assert split.labels["end"] == 2


class TestLabelResolution:
    def test_forward_branch(self, assembler):
        text = """
        BR ALWAYS, target
        NOP
        target:
        STOP
        """
        assembled = assembler.assemble_text(text)
        br = assembled.program.instructions[0]
        assert isinstance(br, Br)
        assert br.target == 2

    def test_backward_branch(self, assembler):
        text = """
        loop:
        NOP
        BR ALWAYS, loop
        """
        assembled = assembler.assemble_text(text)
        br = assembled.program.instructions[1]
        assert br.target == -1

    def test_branch_to_self(self, assembler):
        text = """
        here:
        BR NEVER, here
        """
        assembled = assembler.assemble_text(text)
        assert assembled.program.instructions[0].target == 0

    def test_fig5_cfc_program_assembles(self, assembler):
        text = """
        SMIS S0, {0}
        SMIS S1, {1}
        LDI R0, 1
        MEASZ S1
        QWAIT 30
        FMR R1, Q1
        CMP R1, R0
        BR EQ, eq_path
        ne_path:
        X S0
        BR ALWAYS, next
        eq_path:
        Y S0
        next:
        STOP
        """
        assembled = assembler.assemble_text(text)
        assert len(assembled.words) == 12
        branches = [ins for ins in assembled.program.instructions
                    if isinstance(ins, Br)]
        assert branches[0].target == 3   # BR EQ at 7 -> eq_path at 10
        assert branches[1].target == 2   # BR ALWAYS at 9 -> next at 11


class TestRoundTrip:
    FIG3 = """
    SMIS S0, {0}
    SMIS S2, {2}
    SMIS S7, {0, 2}
    QWAIT 10000
    0, Y S7
    1, X90 S0 | X S2
    1, MEASZ S7
    QWAIT 50
    STOP
    """

    def test_fig3_assembles_to_nine_words(self, assembler):
        assembled = assembler.assemble_text(self.FIG3)
        assert len(assembled.words) == 9
        assert all(0 <= word < (1 << 32) for word in assembled.words)

    def test_disassemble_reassemble_fixpoint(self, assembler, isa):
        assembled = assembler.assemble_text(self.FIG3)
        disassembler = Disassembler(isa)
        text = disassembler.disassemble_text(assembled.words)
        reassembled = assembler.assemble_text(text)
        assert reassembled.words == assembled.words

    def test_word_bytes_little_endian(self, assembler):
        assembled = assembler.assemble_text("STOP")
        raw = assembled.word_bytes()
        assert len(raw) == 4
        assert int.from_bytes(raw, "little") == assembled.words[0]

    def test_two_qubit_instantiation_accepts_fig4(self):
        # The Section 5 setup (qubits 0 and 2 only).
        assembler = Assembler(two_qubit_instantiation())
        text = """
        SMIS S2, {2}
        QWAIT 10000
        X90 S2
        MEASZ S2
        QWAIT 50
        C_X S2
        MEASZ S2
        STOP
        """
        assembled = assembler.assemble_text(text)
        assert len(assembled.words) == 8

    def test_two_qubit_instantiation_rejects_qubit_1(self):
        assembler = Assembler(two_qubit_instantiation())
        with pytest.raises(Exception):
            assembler.assemble_text("SMIS S1, {1}")
