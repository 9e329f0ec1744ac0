"""The eQASM assembler: text -> validated, encoded binary.

Pipeline (Section 3.4.2 and 4.2):

1. parse the listing into a :class:`~repro.core.program.Program`;
2. check what the encoding spec cannot state, per operand kind of the
   instruction table (:mod:`repro.core.instructions`): GPR indices
   below ``isa.num_gprs``, FMR and SMIS qubits on the chip, and SMIT
   pair masks legal on the topology (two selected edges sharing a
   qubit are rejected, per Section 4.3);
3. split bundles wider than the VLIW width into consecutive bundle
   instructions with PI = 0, filling the last word with QNOPs;
4. hoist over-wide PIs into explicit QWAITs (a PI that does not fit the
   3-bit field becomes ``QWAIT pi`` + bundle with PI 0);
5. resolve BR labels to instruction offsets (after splitting, since
   splitting changes addresses);
6. encode each instruction to a word.  The spec's field codecs check
   every range it states — immediates, QWAIT and PI values, S/T
   register indices, bundle-slot operations and register kinds — and
   their :class:`~repro.core.errors.EncodingError` is raised as an
   :class:`~repro.core.errors.AssemblyError` naming the instruction.

The inverse direction — :class:`Disassembler` — reconstructs assembly
text from words.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.encoding import InstructionDecoder, InstructionEncoder
from repro.core.errors import AssemblyError, EncodingError
from repro.core.instructions import (
    GPR,
    MEMORY,
    PAIRS,
    QREG,
    QUBITS,
    Br,
    Bundle,
    BundleOperation,
    Instruction,
    QWait,
)
from repro.core.isa import EQASMInstantiation
from repro.core.program import Program


def _check_gpr(isa: EQASMInstantiation, index: int) -> None:
    if not 0 <= index < isa.num_gprs:
        raise AssemblyError(f"R{index} out of range")


def _check_qubit(isa: EQASMInstantiation, qubit: int) -> None:
    if qubit not in isa.topology.qubits:
        raise AssemblyError(f"Q{qubit} is not on chip {isa.topology.name}")


#: What the encoding spec cannot state, per operand kind: the GPR file
#: size, qubits on the chip and SMIT pair legality (two selected edges
#: sharing a qubit are rejected, Section 4.3).  Every other range is a
#: field codec's check, made when the instruction is encoded.
_KIND_CHECKS = {
    GPR: _check_gpr,
    MEMORY: lambda isa, value: _check_gpr(isa, value[0]),
    QREG: _check_qubit,
    QUBITS: lambda isa, qubits: isa.qubit_mask(qubits),
    PAIRS: lambda isa, pairs: isa.topology.validate_pair_mask(
        isa.pair_mask(pairs)),
}


@dataclass
class AssembledProgram:
    """Assembler output: the final program and its binary image."""

    program: Program
    words: list[int]
    source: str = ""
    #: Bytes per instruction word (4 for the paper's 32-bit
    #: instantiation, 8 for the 64-bit surface-17 one).
    word_size: int = 4

    def __len__(self) -> int:
        return len(self.words)

    def word_bytes(self) -> bytes:
        """Little-endian byte image of the instruction memory."""
        return b"".join(word.to_bytes(self.word_size, "little")
                        for word in self.words)


class Assembler:
    """Assembles eQASM text or programs for one instantiation."""

    def __init__(self, isa: EQASMInstantiation):
        self.isa = isa
        self._encoder = InstructionEncoder(isa)

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def assemble_text(self, text: str) -> AssembledProgram:
        """Assemble a complete listing."""
        program = Program.from_text(text)
        assembled = self.assemble_program(program)
        assembled.source = text
        return assembled

    def assemble_program(self, program: Program) -> AssembledProgram:
        """Assemble an already-parsed program.

        A range the encoding spec states (an immediate, a QWAIT or PI
        value, an S/T register, a bundle slot) is checked by the
        encoder; its :class:`~repro.core.errors.EncodingError` is
        raised as an :class:`AssemblyError` naming the instruction's
        index and text in the assembled program.
        """
        self.validate(program)
        split = self.split_bundles(program)
        resolved = split.resolve_labels()
        self._validate_branch_offsets(resolved)
        encode = self._encoder.encode
        words: list[int] = []
        try:
            for instruction in resolved.instructions:
                words.append(encode(instruction))
        except EncodingError as error:
            index = len(words)
            raise AssemblyError(
                f"instruction {index} "
                f"({resolved.instructions[index].to_assembly()}): "
                f"{error}") from None
        return AssembledProgram(program=resolved, words=words,
                                word_size=self.isa.instruction_width // 8)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, program: Program) -> None:
        """Per-kind operand checks of every instruction (pre-splitting)
        that the encoding spec cannot state."""
        isa = self.isa
        for index, instruction in enumerate(program.instructions):
            try:
                for kind, value in instruction.operand_values():
                    check = _KIND_CHECKS.get(kind)
                    if check is not None:
                        check(isa, value)
            except AssemblyError as error:
                raise AssemblyError(
                    f"instruction {index} "
                    f"({instruction.to_assembly()}): {error}")
        for label, target in program.labels.items():
            if not 0 <= target <= len(program.instructions):
                raise AssemblyError(f"label {label!r} out of range")

    def _validate_branch_offsets(self, program: Program) -> None:
        for index, ins in enumerate(program.instructions):
            if isinstance(ins, Br):
                if isinstance(ins.target, str):
                    raise AssemblyError(f"unresolved label {ins.target!r}")
                destination = index + ins.target
                if not 0 <= destination <= len(program.instructions):
                    raise AssemblyError(
                        f"BR at {index} jumps to {destination}, outside "
                        f"the program")

    # ------------------------------------------------------------------
    # Bundle splitting (Section 3.4.2)
    # ------------------------------------------------------------------
    def split_bundles(self, program: Program) -> Program:
        """Break wide bundles into VLIW-width instruction words.

        A bundle of n > w operations becomes ceil(n / w) consecutive
        bundle instructions; the first keeps the PI, continuations use
        PI = 0 so all operations share one timing point.  PIs too large
        for the PI field are hoisted into an explicit QWAIT.
        """
        isa = self.isa
        new_instructions: list[Instruction] = []
        index_map: dict[int, int] = {}
        for old_index, ins in enumerate(program.instructions):
            index_map[old_index] = len(new_instructions)
            if not isinstance(ins, Bundle):
                new_instructions.append(ins)
                continue
            pi = ins.pi
            if pi > isa.max_pi:
                new_instructions.append(QWait(cycles=pi))
                pi = 0
            chunks = [ins.operations[i:i + isa.vliw_width]
                      for i in range(0, len(ins.operations), isa.vliw_width)]
            for chunk_index, chunk in enumerate(chunks):
                chunk_ops = list(chunk)
                while len(chunk_ops) < isa.vliw_width:
                    chunk_ops.append(BundleOperation(
                        name=isa.operations.QNOP_NAME, register=None))
                new_instructions.append(
                    Bundle(operations=tuple(chunk_ops),
                           pi=pi if chunk_index == 0 else 0,
                           explicit_pi=True))
        index_map[len(program.instructions)] = len(new_instructions)
        new_labels = {label: index_map[target]
                      for label, target in program.labels.items()}
        return Program(instructions=new_instructions, labels=new_labels)


class Disassembler:
    """Turns 32-bit words back into a program and assembly text."""

    def __init__(self, isa: EQASMInstantiation):
        self.isa = isa
        self._decoder = InstructionDecoder(isa)

    def disassemble(self, words: list[int]) -> Program:
        """Decode a word list into a program (no label recovery)."""
        instructions = [self._decoder.decode(word) for word in words]
        return Program(instructions=instructions)

    def disassemble_text(self, words: list[int]) -> str:
        """Decode a word list into assembly text."""
        return self.disassemble(words).to_assembly()
