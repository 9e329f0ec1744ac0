"""QuMIS baseline: the quantum microinstruction set of QuMA (ref [1]).

Fig. 7's baseline ("Config 1 with w = 1") is exactly the QuMIS coding
style, whose low instruction information density the paper dissects in
Section 1.2:

1. "an explicit waiting instruction is required to separate any two
   consecutive timing points";
2. "each target qubit of a quantum operation occupies a field in the
   instruction" — no qubit-set masks, so an operation on ``k`` qubits
   costs ``k`` operation fields, and with the single-operation format
   modelled here, ``k`` instructions;
3. "two parallel and different operations cannot be combined into a
   single instruction" — no VLIW.

This module renders a schedule into QuMIS-style assembly (``wait`` /
``pulse`` / ``trigger`` / ``measure`` mnemonics following the QuMA
paper) and counts instructions, providing the baseline series for the
Fig. 7 and issue-rate comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.scheduler import Schedule
from repro.core.operations import OperationKind, OperationSet


@dataclass(frozen=True)
class QuMISInstruction:
    """One QuMIS-style microinstruction (textual model)."""

    mnemonic: str
    operands: tuple

    def to_assembly(self) -> str:
        rendered = ", ".join(str(operand) for operand in self.operands)
        return f"{self.mnemonic} {rendered}".strip()


class QuMISGenerator:
    """Schedule -> QuMIS-style instruction stream."""

    def __init__(self, operations: OperationSet):
        self.operations = operations

    def generate(self, schedule: Schedule) -> list[QuMISInstruction]:
        """Emit the QuMIS instruction stream for a schedule.

        Every timing point costs one ``wait`` plus one instruction per
        (operation, qubit) instance: measurements become ``measure q``,
        two-qubit flux pulses ``trigger``s on both qubits, and
        single-qubit gates codeword ``pulse``s.
        """
        instructions: list[QuMISInstruction] = []
        previous_cycle = 0
        for cycle, point_ops in schedule.by_cycle():
            gap = cycle - previous_cycle
            previous_cycle = cycle
            instructions.append(QuMISInstruction("wait", (gap,)))
            for entry in point_ops:
                definition = self.operations.get(entry.op.name)
                if definition.kind is OperationKind.MEASUREMENT:
                    for qubit in entry.op.qubits:
                        instructions.append(
                            QuMISInstruction("measure", (f"q{qubit}",)))
                elif definition.kind is OperationKind.TWO_QUBIT:
                    source, target = entry.op.qubits
                    instructions.append(QuMISInstruction(
                        "trigger",
                        (f"flux_{entry.op.name.lower()}", f"q{source}",
                         f"q{target}")))
                else:
                    for qubit in entry.op.qubits:
                        instructions.append(QuMISInstruction(
                            "pulse", (entry.op.name.lower(), f"q{qubit}")))
        return instructions

    def count_instructions(self, schedule: Schedule) -> int:
        """Instruction count of the QuMIS encoding of a schedule."""
        return len(self.generate(schedule))

    def to_assembly(self, schedule: Schedule) -> str:
        """Render the QuMIS stream as text (for inspection/tests)."""
        return "\n".join(ins.to_assembly()
                         for ins in self.generate(schedule)) + "\n"


def required_issue_rate(schedule: Schedule, operations: OperationSet,
                        generator_count: int,
                        quantum_cycle_ns: float = 20.0,
                        classical_cycle_ns: float = 10.0) -> float:
    """Rreq / Rallowed for an encoding of a schedule (Section 1.2).

    ``generator_count`` is the number of instructions the encoding
    needs (QuMIS or eQASM).  The timeline spans ``makespan`` quantum
    cycles, during which the pipeline can issue
    ``makespan * quantum_cycle / classical_cycle`` instructions; the
    ratio above 1.0 means the stream cannot be sustained
    (Rreq > Rallowed) and timing slips.
    """
    makespan = schedule.makespan()
    if makespan == 0:
        return 0.0
    allowed = makespan * quantum_cycle_ns / classical_cycle_ns
    return generator_count / allowed
