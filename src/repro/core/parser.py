"""Parser for eQASM assembly text.

Accepts the syntax used throughout the paper (Figs. 3, 4, 5 and the
Section 3 listings):

* comments start with ``#`` and run to end of line;
* labels are ``name:`` at the start of a line (may stand alone);
* classical instructions: ``LDI R0, 1``, ``BR EQ, eq_path``,
  ``LD R1, R2(8)``, ``FMR R1, Q1`` ...;
* waiting: ``QWAIT 10000``, ``QWAITR R0``;
* target-specify: ``SMIS S7, {0, 2}``, ``SMIT T3, {(1, 3), (2, 4)}``;
* quantum bundles: ``[PI,] op Sreg [| op Treg]*`` — e.g.
  ``1, X90 S0 | X S2`` or ``Y S7`` (PI defaults to 1) or
  ``0, CNOT T3 | QNOP``.

Mnemonics and register names are case-insensitive; the mnemonics of
single-word instructions are reserved words and may not be used as
quantum operation names.

There is one statement path.  A line whose first word is a key of the
instruction table (:data:`repro.core.instructions.MNEMONICS`) is read
through its class's ``operands``: the arity is checked and each token
is parsed by its operand kind, so the parser holds no per-mnemonic
code.  Any other line is a quantum bundle, which keeps its own syntax.

The parser is purely syntactic: it does not need the operation
configuration or chip topology.  Semantic checks (operation known,
masks valid, registers in range) happen in
:mod:`repro.core.assembler`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.core.errors import ParseError
from repro.core.instructions import (
    INT_LITERAL,
    MNEMONICS,
    Bundle,
    BundleOperation,
    Instruction,
    parse_int,
)

_LABEL_RE = re.compile(r"^([A-Za-z_]\w*):")
_BUNDLE_OP_RE = re.compile(r"^([A-Za-z_]\w*)(?:\s+([SsTt]\d+))?$")


@dataclass(frozen=True)
class ParsedLine:
    """One source line: labels defined here plus an optional instruction."""

    labels: tuple[str, ...]
    instruction: Instruction | None
    line_number: int
    source: str


def _split_operands(text: str) -> list[str]:
    """Split an operand string on top-level commas.

    Commas inside ``{...}`` and ``(...)`` (SMIS/SMIT lists) do not
    separate operands.
    """
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for char in text:
        if char in "{(":
            depth += 1
        elif char in "})":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


class Parser:
    """Parses eQASM assembly text into instructions and labels."""

    def parse_text(self, text: str) -> list[ParsedLine]:
        """Parse a complete assembly listing."""
        parsed: list[ParsedLine] = []
        for line_number, raw in enumerate(text.splitlines(), start=1):
            parsed_line = self.parse_line(raw, line_number)
            if parsed_line.labels or parsed_line.instruction is not None:
                parsed.append(parsed_line)
        return parsed

    def parse_line(self, raw: str, line_number: int = 0) -> ParsedLine:
        """Parse a single source line."""
        text = raw.split("#", 1)[0].strip()
        labels: list[str] = []
        while True:
            match = _LABEL_RE.match(text)
            if not match:
                break
            labels.append(match.group(1))
            text = text[match.end():].strip()
        if not text:
            return ParsedLine(labels=tuple(labels), instruction=None,
                              line_number=line_number, source=raw)
        try:
            instruction = self._parse_statement(text)
        except ValueError as error:
            raise ParseError(str(error), line_number, raw)
        return ParsedLine(labels=tuple(labels), instruction=instruction,
                          line_number=line_number, source=raw)

    def _parse_statement(self, text: str) -> Instruction:
        """One single-word instruction, read through its table entry
        and operand kinds, or else a quantum bundle."""
        parts = text.split(None, 1)
        mnemonic = parts[0].rstrip(",").upper()
        entry = MNEMONICS.get(mnemonic)
        if entry is None:
            return self._parse_bundle(text)
        cls, fixed = entry
        tokens = _split_operands(parts[1] if len(parts) > 1 else "")
        if len(tokens) != len(cls.operands):
            raise ValueError(
                f"{mnemonic} expects {len(cls.operands)} operand(s), "
                f"got {len(tokens)}")
        kwargs = dict(fixed)
        for token, (attrs, kind) in zip(tokens, cls.operands):
            value = kind.parse(token)
            if isinstance(attrs, str):
                kwargs[attrs] = value
            else:
                kwargs.update(zip(attrs, value))
        return cls(**kwargs)

    # ------------------------------------------------------------------
    # Quantum bundles
    # ------------------------------------------------------------------
    def _parse_bundle(self, text: str) -> Bundle:
        pi = 1
        explicit_pi = False
        body = text
        # Leading "<int>," is the pre-interval.
        first_comma = text.find(",")
        if first_comma > 0:
            head = text[:first_comma].strip()
            if INT_LITERAL.match(head):
                pi = parse_int(head)
                if pi < 0:
                    raise ValueError("PI cannot be negative")
                explicit_pi = True
                body = text[first_comma + 1:].strip()
        operations = []
        for piece in body.split("|"):
            piece = piece.strip()
            if not piece:
                raise ValueError("empty operation in bundle")
            match = _BUNDLE_OP_RE.match(piece)
            if not match:
                raise ValueError(f"cannot parse quantum operation {piece!r}")
            name = match.group(1).upper()
            register_token = match.group(2)
            if register_token is None:
                operations.append(BundleOperation(name=name, register=None))
            else:
                kind = register_token[0].upper()
                index = int(register_token[1:])
                operations.append(
                    BundleOperation(name=name, register=(kind, index)))
        return Bundle(operations=tuple(operations), pi=pi,
                      explicit_pi=explicit_pi)


def parse_program_text(text: str) -> list[ParsedLine]:
    """Convenience wrapper: parse a listing with a fresh parser."""
    return Parser().parse_text(text)
