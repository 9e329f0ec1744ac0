"""Program container: instruction sequence plus label table.

A :class:`Program` is the semantic form of an eQASM listing: parsed
instructions in order, with labels mapping to instruction indices.
Label references in ``BR`` instructions are resolved to relative
offsets ("jump to PC + Offset", Table 1) by :meth:`Program.resolve_labels`.

Parsing and printing go through the instruction table of
:mod:`repro.core.instructions` (each instruction's ``to_assembly``), so
``Program.from_text(program.to_assembly())`` rebuilds the same
instructions.  Validation against an instantiation (register ranges,
known operations, legal target masks) lives in
:mod:`repro.core.assembler`, which also performs VLIW bundle splitting
— splitting changes instruction indices, so label resolution is
deferred until after it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import AssemblyError
from repro.core.instructions import Br, Instruction
from repro.core.parser import ParsedLine, parse_program_text


@dataclass
class Program:
    """An ordered instruction list with a label table.

    ``labels[name]`` is the index of the instruction the label points
    at; a label at the very end of the listing points one past the last
    instruction (a common jump-to-exit pattern).
    """

    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_parsed_lines(cls, lines: list[ParsedLine]) -> "Program":
        """Build a program from parser output."""
        program = cls()
        pending_labels: list[str] = []
        for line in lines:
            pending_labels.extend(line.labels)
            if line.instruction is None:
                continue
            index = len(program.instructions)
            for label in pending_labels:
                if label in program.labels:
                    raise AssemblyError(f"duplicate label {label!r}")
                program.labels[label] = index
            pending_labels = []
            program.instructions.append(line.instruction)
        # Trailing labels point one past the end.
        for label in pending_labels:
            if label in program.labels:
                raise AssemblyError(f"duplicate label {label!r}")
            program.labels[label] = len(program.instructions)
        return program

    @classmethod
    def from_text(cls, text: str) -> "Program":
        """Parse assembly text into a program."""
        return cls.from_parsed_lines(parse_program_text(text))

    # ------------------------------------------------------------------
    # Label resolution
    # ------------------------------------------------------------------
    def resolve_labels(self) -> "Program":
        """Return a copy with all BR label targets turned into offsets.

        The offset convention matches Table 1: the branch target is
        ``PC + Offset`` where PC is the address of the BR instruction
        itself.
        """
        resolved: list[Instruction] = []
        for index, instruction in enumerate(self.instructions):
            if isinstance(instruction, Br) and isinstance(
                    instruction.target, str):
                label = instruction.target
                if label not in self.labels:
                    raise AssemblyError(f"undefined label {label!r}")
                offset = self.labels[label] - index
                resolved.append(instruction.with_offset(offset))
            else:
                resolved.append(instruction)
        return Program(instructions=resolved, labels=dict(self.labels))

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_assembly(self) -> str:
        """Render the program back to assembly text.

        Labels are printed on their own lines before the instruction
        they reference.
        """
        labels_at: dict[int, list[str]] = {}
        for label, index in self.labels.items():
            labels_at.setdefault(index, []).append(label)
        lines: list[str] = []
        for index, instruction in enumerate(self.instructions):
            for label in sorted(labels_at.get(index, [])):
                lines.append(f"{label}:")
            lines.append(f"    {instruction.to_assembly()}")
        for label in sorted(labels_at.get(len(self.instructions), [])):
            lines.append(f"{label}:")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # Collection protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def append(self, instruction: Instruction) -> None:
        """Append one instruction."""
        self.instructions.append(instruction)

    def extend(self, instructions) -> None:
        """Append several instructions."""
        self.instructions.extend(instructions)
