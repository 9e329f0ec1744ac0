"""Property-based round trips: instruction -> assembly text -> parse."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.instructions import (
    MNEMONICS,
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
    mnemonic_of,
)
from repro.core.parser import Parser
from repro.core.program import Program
from repro.core.registers import ComparisonFlag

gpr = st.integers(min_value=0, max_value=31)
flag = st.sampled_from(list(ComparisonFlag))
qubit = st.integers(min_value=0, max_value=6)
op_names = st.sampled_from(["X", "Y", "X90", "MEASZ", "C_X", "H",
                            "X_AMP_3"])
imm15 = st.integers(-(1 << 14), (1 << 14) - 1)
label = st.from_regex(r"\A[A-Za-z_][A-Za-z0-9_]{0,8}\Z")
pair = st.tuples(qubit, qubit)

#: Mnemonic -> strategy for an instruction of that mnemonic; the keys
#: are the instruction table's (``test_every_mnemonic_is_drawn``).
SINGLE_WORD = {
    "NOP": st.just(Nop()),
    "STOP": st.just(Stop()),
    "CMP": st.builds(Cmp, rs=gpr, rt=gpr),
    "BR": st.builds(Br, condition=flag,
                    target=st.one_of(st.integers(-1000, 1000), label)),
    "FBR": st.builds(Fbr, condition=flag, rd=gpr),
    "LDI": st.builds(Ldi, rd=gpr,
                     imm=st.integers(-(1 << 19), (1 << 19) - 1)),
    "LDUI": st.builds(Ldui, rd=gpr, imm=st.integers(0, (1 << 15) - 1),
                      rs=gpr),
    "LD": st.builds(Ld, rd=gpr, rt=gpr, imm=imm15),
    "ST": st.builds(St, rs=gpr, rt=gpr, imm=imm15),
    "FMR": st.builds(Fmr, rd=gpr, qubit=qubit),
    "NOT": st.builds(Not, rd=gpr, rt=gpr),
    "SMIS": st.builds(SMIS, sd=gpr, qubits=st.frozensets(
        qubit, min_size=1, max_size=7)),
    "SMIT": st.builds(SMIT, td=gpr, pairs=st.frozensets(
        pair, min_size=1, max_size=4)),
    "QWAIT": st.builds(QWait, cycles=st.integers(0, (1 << 20) - 1)),
    "QWAITR": st.builds(QWaitR, rs=gpr),
}
for _name in ("AND", "OR", "XOR"):
    SINGLE_WORD[_name] = st.builds(LogicalOp, st.just(_name), gpr, gpr, gpr)
for _name in ("ADD", "SUB"):
    SINGLE_WORD[_name] = st.builds(ArithOp, st.just(_name), gpr, gpr, gpr)

bundles = st.builds(
    Bundle,
    operations=st.lists(st.builds(BundleOperation, name=op_names,
                                  register=st.tuples(st.just("S"), gpr)),
                        min_size=1, max_size=3).map(tuple),
    pi=st.integers(0, 7), explicit_pi=st.just(True))


def instructions():
    """Any single-word instruction, or a bundle."""
    return st.one_of(*SINGLE_WORD.values(), bundles)


class TestStrategyCoverage:
    def test_every_mnemonic_is_drawn(self):
        """The round trips below cover every key of the one table."""
        assert SINGLE_WORD.keys() == MNEMONICS.keys()

    @given(st.data())
    @settings(max_examples=10, deadline=None)
    def test_each_strategy_draws_its_mnemonic(self, data):
        for mnemonic, strategy in SINGLE_WORD.items():
            assert mnemonic_of(data.draw(strategy)) == mnemonic


class TestParsePrintRoundTrip:
    @given(instructions())
    @settings(max_examples=300, deadline=None)
    def test_print_then_parse_is_identity(self, instruction):
        text = instruction.to_assembly()
        parsed = Parser().parse_line(text, 1).instruction
        assert parsed == instruction

    @given(st.lists(instructions(), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_program_level_round_trip(self, instruction_list):
        program = Program(instructions=list(instruction_list))
        reparsed = Program.from_text(program.to_assembly())
        assert reparsed.instructions == program.instructions

    def test_smit_round_trip(self):
        # SMIT separately (pairs need valid-looking tuples).
        instruction = SMIT(td=3, pairs=frozenset({(2, 0), (1, 3)}))
        parsed = Parser().parse_line(instruction.to_assembly(), 1)
        assert parsed.instruction == instruction

    def test_implicit_pi_round_trip_semantics(self):
        # "Y S7" prints without PI and reparses with the same default.
        bundle = Bundle(operations=(BundleOperation("Y", ("S", 7)),),
                        pi=1, explicit_pi=False)
        parsed = Parser().parse_line(bundle.to_assembly(), 1).instruction
        assert parsed.pi == 1
        assert parsed.operations == bundle.operations
