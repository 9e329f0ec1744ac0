"""Golden-regression corpus for the instruction encoders.

One representative of *every* instruction class (and both register
kinds of a bundle slot), instantiated per ISA so the chip-dependent
operands (qubit sets, directed pairs, FMR qubit addresses) are legal on
that instantiation's topology.  The checked-in fixtures under
``tests/core/data/golden_words_w{32,64}.json`` were serialized through
the *hand-written* pre-isaspec encoder; ``test_golden_words.py``
asserts the spec-driven path reproduces them byte for byte, which is
what keeps assembled-program caches and replay-tree cache keys stable
across the refactor.

Regenerate (only when the corpus itself changes — never to paper over
an encoding difference) with::

    PYTHONPATH=src:tests python -m core.golden_corpus

run from the repository root.
"""

from __future__ import annotations

import json
from pathlib import Path

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
from repro.core.isa import (
    EQASMInstantiation,
    rotated_surface_instantiation,
    seven_qubit_instantiation,
)
from repro.core.registers import ComparisonFlag

DATA_DIR = Path(__file__).parent / "data"


def fixture_path(width: int) -> Path:
    return DATA_DIR / f"golden_words_w{width}.json"


def corpus_for(isa: EQASMInstantiation) -> list[tuple[str, object]]:
    """(label, instruction) pairs covering every encodable class."""
    qubits = isa.topology.qubits
    # One low-address pair, one reverse-direction pair (address in the
    # upper half of the mask — past bit 31 on the wide instantiations),
    # and a two-pair mask.
    pair_lo = isa.topology.pairs[0].as_tuple()
    pair_hi = isa.topology.pairs[-1].as_tuple()
    entries: list[tuple[str, object]] = [
        ("nop", Nop()),
        ("stop", Stop()),
        ("cmp", Cmp(rs=1, rt=2)),
        ("br_fwd", Br(condition=ComparisonFlag.EQ, target=5)),
        ("br_back", Br(condition=ComparisonFlag.ALWAYS, target=-3)),
        ("br_min", Br(condition=ComparisonFlag.LTU,
                      target=-(1 << 20))),
        ("fbr", Fbr(condition=ComparisonFlag.LT, rd=9)),
        ("ldi_pos", Ldi(rd=0, imm=(1 << 19) - 1)),
        ("ldi_neg", Ldi(rd=31, imm=-(1 << 19))),
        ("ldui", Ldui(rd=2, imm=0x7FFF, rs=2)),
        ("ld", Ld(rd=3, rt=4, imm=-16)),
        ("st", St(rs=5, rt=6, imm=12)),
        ("fmr_q0", Fmr(rd=7, qubit=qubits[0])),
        ("fmr_qmax", Fmr(rd=1, qubit=qubits[-1])),
        ("and", LogicalOp("AND", rd=1, rs=2, rt=3)),
        ("or", LogicalOp("OR", rd=4, rs=5, rt=6)),
        ("xor", LogicalOp("XOR", rd=7, rs=8, rt=9)),
        ("not", Not(rd=10, rt=11)),
        ("add", ArithOp("ADD", rd=12, rs=13, rt=14)),
        ("sub", ArithOp("SUB", rd=15, rs=16, rt=17)),
        ("qwait_zero", QWait(cycles=0)),
        ("qwait_max", QWait(cycles=(1 << isa.qwait_immediate_width) - 1)),
        ("qwaitr", QWaitR(rs=30)),
        ("smis_one", SMIS(sd=7, qubits=frozenset({qubits[0]}))),
        ("smis_all", SMIS(sd=31, qubits=frozenset(qubits))),
        ("smit_lo", SMIT(td=3, pairs=frozenset({pair_lo}))),
        ("smit_hi", SMIT(td=0, pairs=frozenset({pair_hi}))),
        ("smit_two", SMIT(td=31, pairs=frozenset({pair_lo, pair_hi}))),
        ("bundle_two_single", Bundle(operations=(
            BundleOperation("X90", ("S", 0)),
            BundleOperation("X", ("S", 2))), pi=1)),
        ("bundle_qnop_fill", Bundle(operations=(
            BundleOperation("Y", ("S", 7)),), pi=0)),
        ("bundle_explicit_qnop", Bundle(operations=(
            BundleOperation("MEASZ", ("S", 7)),
            BundleOperation("QNOP", None)), pi=7)),
        ("bundle_two_qubit", Bundle(operations=(
            BundleOperation("CZ", ("T", 3)),
            BundleOperation("QNOP", None)), pi=0)),
        ("bundle_mixed_kinds", Bundle(operations=(
            BundleOperation("CZ", ("T", 31)),
            BundleOperation("Y90", ("S", 31))), pi=2)),
    ]
    return entries


GOLDEN_ISAS = {
    32: seven_qubit_instantiation,
    64: lambda: rotated_surface_instantiation(3),
}


def generate(width: int) -> dict:
    """Encode the corpus through whatever encoder is currently live."""
    from repro.core.encoding import InstructionEncoder

    isa = GOLDEN_ISAS[width]()
    encoder = InstructionEncoder(isa)
    words = {}
    for label, instruction in corpus_for(isa):
        word = encoder.encode(instruction)
        words[label] = {
            "assembly": instruction.to_assembly(),
            "word_hex": f"{word:0{width // 4}x}",
        }
    return {
        "instantiation": isa.name,
        "instruction_width": width,
        "words": words,
    }


def main() -> None:
    DATA_DIR.mkdir(exist_ok=True)
    for width in GOLDEN_ISAS:
        path = fixture_path(width)
        path.write_text(json.dumps(generate(width), indent=2) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
