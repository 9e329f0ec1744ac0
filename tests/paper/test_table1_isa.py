"""Table 1: every eQASM mnemonic end to end.

Assembles a program that uses each instruction of Table 1, decodes its
32-bit words back to text and reassembles it: the words must be a
fixpoint of the round trip.
"""

from repro.core import Assembler, Disassembler, seven_qubit_instantiation

TABLE1_PROGRAM = """
start:
    LDI R0, 5
    LDI R1, -3
    LDUI R2, 10, R0
    ADD R3, R0, R1
    SUB R4, R0, R1
    AND R5, R0, R1
    OR R6, R0, R1
    XOR R7, R0, R1
    NOT R8, R1
    ST R3, R0(8)
    LD R9, R0(8)
    CMP R3, R9
    FBR EQ, R10
    BR NE, skip
    NOP
skip:
    SMIS S0, {0}
    SMIS S7, {0, 2}
    SMIT T3, {(2, 0)}
    QWAIT 100
    QWAITR R0
    0, Y S7
    1, X90 S0 | MEASZ S7
    CZ T3
    FMR R11, Q0
    STOP
"""


def test_table1_every_mnemonic_roundtrips():
    isa = seven_qubit_instantiation()
    assembler = Assembler(isa)
    assembled = assembler.assemble_text(TABLE1_PROGRAM)
    text = Disassembler(isa).disassemble_text(assembled.words)
    again = assembler.assemble_text(text)
    assert assembled.words == again.words
