"""Instruction dataclasses for eQASM (Table 1), and the one instruction
table that defines their assembly form.

The assembly level is the definition level of eQASM; these classes are
the in-memory form of parsed assembly and the input/output of the binary
encoder.  Every single-word instruction is defined once, here:

* :data:`MNEMONICS` maps each mnemonic to its class and the fixed
  constructor arguments it implies (``AND``/``OR``/``XOR`` share
  ``LogicalOp``, ``ADD``/``SUB`` share ``ArithOp``);
* each class lists its assembly operands in ``operands``, in order, as
  ``(attribute or attributes, kind)``; an :class:`OperandKind` (GPR,
  S/T/Q register, integer, comparison flag, branch target, memory
  ``Rt(Imm)``, qubit set, pair set) has one parse and one render
  function.

The parser, the printer (:meth:`Instruction.to_assembly`), the
assembler's per-kind checks and the binary encoder/decoder all read
these two definitions; the instantiation's
:class:`~repro.core.isaspec.EncodingSpec` holds a format for every key
of :data:`MNEMONICS`.  The spec is the binary definition of an
instruction, this table its assembly definition.  Quantum bundles keep
their own syntax (:class:`Bundle`).

Instruction taxonomy (Table 1):

* auxiliary classical — control (``CMP``, ``BR``), data transfer
  (``FBR``, ``LDI``, ``LDUI``, ``LD``, ``ST``, ``FMR``), logical
  (``AND``/``OR``/``XOR``/``NOT``), arithmetic (``ADD``/``SUB``),
  plus ``NOP``/``STOP`` added by this instantiation;
* waiting — ``QWAIT``, ``QWAITR``;
* target-specify — ``SMIS``, ``SMIT``;
* quantum bundle — ``[PI,] op target (| op target)*``.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.core.errors import AssemblyError
from repro.core.registers import ComparisonFlag, to_unsigned32

#: An integer literal: decimal or hex (``0x``), optionally negative.
INT_LITERAL = re.compile(r"^-?(?:0[xX][0-9a-fA-F]+|\d+)$")


class OperandKind(NamedTuple):
    """How one assembly operand is written.

    ``parse(token)`` returns the attribute value (a tuple of values for
    an operand that fills several attributes) and raises
    :class:`ValueError` on malformed text; ``render(value)`` is its
    inverse.
    """

    parse: Callable[[str], object]
    render: Callable[[object], str]


def parse_int(token: str) -> int:
    """Parse a decimal or hex (0x) integer literal."""
    token = token.strip()
    if not INT_LITERAL.match(token):
        raise ValueError(f"not an integer literal: {token!r}")
    return int(token, 0)


def _register(prefix: str, what: str) -> OperandKind:
    pattern = re.compile(rf"^[{prefix}{prefix.lower()}](\d+)$")

    def parse(token: str) -> int:
        match = pattern.match(token.strip())
        if not match:
            raise ValueError(f"expected {what} ({prefix}<i>), got {token!r}")
        return int(match.group(1))

    return OperandKind(parse, lambda index: f"{prefix}{index}")


def _parse_flag(token: str) -> ComparisonFlag:
    try:
        return ComparisonFlag[token.strip().upper()]
    except KeyError:
        known = ", ".join(flag.name for flag in ComparisonFlag)
        raise ValueError(f"unknown comparison flag {token!r}; "
                         f"known flags: {known}")


def _parse_target(token: str) -> str | int:
    return parse_int(token) if INT_LITERAL.match(token) else token


_MEMORY_RE = re.compile(
    r"^[Rr](\d+)\s*\(\s*(-?(?:0[xX][0-9a-fA-F]+|\d+))\s*\)$")


def _parse_memory(token: str) -> tuple[int, int]:
    match = _MEMORY_RE.match(token)
    if not match:
        raise ValueError(f"memory operand must be Rt(Imm), got {token!r}")
    return int(match.group(1)), int(match.group(2), 0)


def _braced(token: str, what: str) -> str:
    body = token.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"{what} must be {{...}}, got {body!r}")
    return body[1:-1].strip()


def _parse_qubits(token: str) -> frozenset[int]:
    inner = _braced(token, "qubit list")
    if not inner:
        raise ValueError("qubit list is empty")
    return frozenset(parse_int(piece) for piece in inner.split(","))


def _parse_pairs(token: str) -> frozenset[tuple[int, int]]:
    pieces = re.findall(r"\(([^)]*)\)", _braced(token, "pair list"))
    if not pieces:
        raise ValueError("pair list is empty")
    pairs = set()
    for piece in pieces:
        elements = piece.split(",")
        if len(elements) != 2:
            raise ValueError(f"pair ({piece}) must have two qubits")
        pairs.add((parse_int(elements[0]), parse_int(elements[1])))
    return frozenset(pairs)


GPR = _register("R", "GPR")
SREG = _register("S", "S register")
TREG = _register("T", "T register")
QREG = _register("Q", "qubit")
INT = OperandKind(parse_int, str)
FLAG = OperandKind(_parse_flag, lambda flag: flag.name)
TARGET = OperandKind(_parse_target, str)
MEMORY = OperandKind(_parse_memory, lambda value: f"R{value[0]}({value[1]})")
QUBITS = OperandKind(
    _parse_qubits,
    lambda qubits: "{" + ", ".join(str(q) for q in sorted(qubits)) + "}")
PAIRS = OperandKind(
    _parse_pairs,
    lambda pairs: "{" + ", ".join(f"({s}, {t})" for s, t in sorted(pairs))
    + "}")


class Instruction:
    """Base class: every instruction renders to assembly text.

    ``operands`` lists a single-word instruction's assembly operands in
    order, as ``(attribute or attributes, kind)``.
    """

    operands: tuple[tuple[str | tuple[str, ...], OperandKind], ...] = ()

    def operand_values(self):
        """``(kind, value)`` of each assembly operand, in order."""
        for attrs, kind in self.operands:
            if isinstance(attrs, str):
                yield kind, getattr(self, attrs)
            else:
                yield kind, tuple(getattr(self, attr) for attr in attrs)

    def to_assembly(self) -> str:
        mnemonic = mnemonic_of(self)
        if not self.operands:
            return mnemonic
        return mnemonic + " " + ", ".join(
            kind.render(value) for kind, value in self.operand_values())

    def __str__(self) -> str:
        return self.to_assembly()


# ----------------------------------------------------------------------
# Auxiliary classical instructions
#
# Each register-writing ALU instruction (LDI, LDUI, NOT, AND/OR/XOR,
# ADD/SUB) names the registers it reads in ``sources`` and computes its
# result in ``evaluate(*source values)``; LD/ST compute their byte
# address in ``address(base)``.  These are the only definitions of the
# operations: the interpreter executes them and the data-memory
# dataflow pass folds them.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Nop(Instruction):
    """No operation."""


@dataclass(frozen=True)
class Stop(Instruction):
    """End of program (instantiation extension; QuMIS precedent)."""


@dataclass(frozen=True)
class Cmp(Instruction):
    """``CMP Rs, Rt`` — set all comparison flags from Rs vs Rt."""

    rs: int
    rt: int

    operands = (("rs", GPR), ("rt", GPR))


@dataclass(frozen=True)
class Br(Instruction):
    """``BR <flag>, Offset`` — PC += Offset if the flag is '1'.

    ``target`` may be a label (str, resolved by the assembler) or an
    already-resolved integer offset in instructions relative to the
    branch's own PC, matching "jump to PC + Offset" (``BR ALWAYS, 1``
    falls through).  Only resolved branches run or are analysed.
    """

    condition: ComparisonFlag
    target: str | int

    operands = (("condition", FLAG), ("target", TARGET))

    def with_offset(self, offset: int) -> "Br":
        """A copy with the label replaced by a numeric offset."""
        return Br(condition=self.condition, target=offset)


@dataclass(frozen=True)
class Fbr(Instruction):
    """``FBR <flag>, Rd`` — fetch a comparison flag into a GPR."""

    condition: ComparisonFlag
    rd: int

    operands = (("condition", FLAG), ("rd", GPR))


@dataclass(frozen=True)
class Ldi(Instruction):
    """``LDI Rd, Imm`` — Rd = sign_ext(Imm[19..0], 32)."""

    rd: int
    imm: int

    operands = (("rd", GPR), ("imm", INT))
    sources = ()

    def evaluate(self) -> int:
        return to_unsigned32(self.imm)


@dataclass(frozen=True)
class Ldui(Instruction):
    """``LDUI Rd, Imm, Rs`` — Rd = Imm[14..0] :: Rs[16..0]."""

    rd: int
    imm: int
    rs: int

    operands = (("rd", GPR), ("imm", INT), ("rs", GPR))

    @property
    def sources(self) -> tuple[int, ...]:
        return (self.rs,)

    def evaluate(self, s: int) -> int:
        return ((self.imm & 0x7FFF) << 17) | (s & 0x1FFFF)


@dataclass(frozen=True)
class Ld(Instruction):
    """``LD Rd, Rt(Imm)`` — Rd = memory[Rt + Imm]."""

    rd: int
    rt: int
    imm: int

    operands = (("rd", GPR), (("rt", "imm"), MEMORY))

    def address(self, base: int) -> int:
        """Effective byte address for Rt holding ``base``."""
        return to_unsigned32(base + self.imm)


@dataclass(frozen=True)
class St(Instruction):
    """``ST Rs, Rt(Imm)`` — memory[Rt + Imm] = Rs."""

    rs: int
    rt: int
    imm: int

    operands = (("rs", GPR), (("rt", "imm"), MEMORY))
    address = Ld.address


@dataclass(frozen=True)
class Fmr(Instruction):
    """``FMR Rd, Qi`` — fetch the last measurement result of qubit i.

    Stalls while Q_i is invalid (pending measurements outstanding)."""

    rd: int
    qubit: int

    operands = (("rd", GPR), ("qubit", QREG))


_LOGICAL = {"AND": operator.and_, "OR": operator.or_, "XOR": operator.xor}
_ARITHMETIC = {"ADD": operator.add, "SUB": operator.sub}


@dataclass(frozen=True)
class LogicalOp(Instruction):
    """``AND/OR/XOR Rd, Rs, Rt`` — bitwise logical operations."""

    mnemonic_name: str  # "AND" | "OR" | "XOR"
    rd: int
    rs: int
    rt: int

    operands = (("rd", GPR), ("rs", GPR), ("rt", GPR))

    def __post_init__(self) -> None:
        if self.mnemonic_name not in _LOGICAL:
            raise AssemblyError(
                f"invalid logical mnemonic {self.mnemonic_name}")

    @property
    def sources(self) -> tuple[int, ...]:
        return (self.rs, self.rt)

    def evaluate(self, s: int, t: int) -> int:
        return to_unsigned32(_LOGICAL[self.mnemonic_name](s, t))


@dataclass(frozen=True)
class Not(Instruction):
    """``NOT Rd, Rt`` — bitwise complement."""

    rd: int
    rt: int

    operands = (("rd", GPR), ("rt", GPR))

    @property
    def sources(self) -> tuple[int, ...]:
        return (self.rt,)

    def evaluate(self, t: int) -> int:
        return to_unsigned32(~t)


@dataclass(frozen=True)
class ArithOp(Instruction):
    """``ADD/SUB Rd, Rs, Rt`` — 32-bit wrap-around arithmetic."""

    mnemonic_name: str  # "ADD" | "SUB"
    rd: int
    rs: int
    rt: int

    operands = LogicalOp.operands

    def __post_init__(self) -> None:
        if self.mnemonic_name not in _ARITHMETIC:
            raise AssemblyError(
                f"invalid arithmetic mnemonic {self.mnemonic_name}")

    sources = LogicalOp.sources

    def evaluate(self, s: int, t: int) -> int:
        return to_unsigned32(_ARITHMETIC[self.mnemonic_name](s, t))


# ----------------------------------------------------------------------
# Waiting instructions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QWait(Instruction):
    """``QWAIT Imm`` — new timing point Imm cycles after the last one."""

    cycles: int

    operands = (("cycles", INT),)

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise AssemblyError("QWAIT duration cannot be negative")


@dataclass(frozen=True)
class QWaitR(Instruction):
    """``QWAITR Rs`` — register-valued waiting."""

    rs: int

    operands = (("rs", GPR),)


# ----------------------------------------------------------------------
# Target-specify instructions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SMIS(Instruction):
    """``SMIS Sd, {q0, q1, ...}`` — set a single-qubit target register."""

    sd: int
    qubits: frozenset[int]

    operands = (("sd", SREG), ("qubits", QUBITS))

    def __post_init__(self) -> None:
        if not self.qubits:
            raise AssemblyError(f"SMIS S{self.sd}: empty qubit list")
        if any(q < 0 for q in self.qubits):
            raise AssemblyError(f"SMIS S{self.sd}: negative qubit address")


@dataclass(frozen=True)
class SMIT(Instruction):
    """``SMIT Td, {(s, t), ...}`` — set a two-qubit target register.

    Pairs are directed (source, target) tuples; the mask encoding maps
    each pair to its edge address on the chip, so building the mask
    needs the topology and happens in the assembler.
    """

    td: int
    pairs: frozenset[tuple[int, int]]

    operands = (("td", TREG), ("pairs", PAIRS))

    def __post_init__(self) -> None:
        if not self.pairs:
            raise AssemblyError(f"SMIT T{self.td}: empty pair list")


# ----------------------------------------------------------------------
# Quantum bundles
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BundleOperation:
    """One quantum operation inside a bundle: name + target register.

    ``register`` is ``("S", i)`` or ``("T", i)``; QNOP carries None.
    """

    name: str
    register: tuple[str, int] | None = None

    def __post_init__(self) -> None:
        if self.register is not None:
            kind, index = self.register
            if kind not in ("S", "T"):
                raise AssemblyError(
                    f"bundle operand register kind {kind!r} invalid")
            if index < 0:
                raise AssemblyError("negative target register index")

    def to_assembly(self) -> str:
        if self.register is None:
            return self.name
        kind, index = self.register
        return f"{self.name} {kind}{index}"


@dataclass(frozen=True)
class Bundle(Instruction):
    """``[PI,] op target (| op target)*`` — parallel quantum operations.

    ``pi`` is the pre-interval: the operations start ``pi`` cycles after
    the previous timing point (default 1, Section 3.1.2).  The assembly
    form allows arbitrarily many operations; the assembler splits the
    bundle into VLIW-width instruction words with PI = 0 continuations
    (Section 3.4.2).
    """

    operations: tuple[BundleOperation, ...]
    pi: int = 1
    explicit_pi: bool = True

    def __post_init__(self) -> None:
        if self.pi < 0:
            raise AssemblyError("PI cannot be negative")
        if not self.operations:
            raise AssemblyError("empty quantum bundle")

    def to_assembly(self) -> str:
        ops = " | ".join(op.to_assembly() for op in self.operations)
        if self.explicit_pi:
            return f"{self.pi}, {ops}"
        return ops


#: The instruction table: mnemonic -> (instruction class, fixed
#: constructor kwargs), one entry per single-word instruction.  The
#: parser looks mnemonics up here, the printer and the encoder find an
#: object's mnemonic through :func:`mnemonic_of`, the decoder rebuilds
#: objects from it, and an encoding spec is exhaustive when its format
#: names equal its keys.
MNEMONICS: dict[str, tuple[type[Instruction], dict[str, object]]] = {
    "NOP": (Nop, {}),
    "STOP": (Stop, {}),
    "CMP": (Cmp, {}),
    "BR": (Br, {}),
    "FBR": (Fbr, {}),
    "LDI": (Ldi, {}),
    "LDUI": (Ldui, {}),
    "LD": (Ld, {}),
    "ST": (St, {}),
    "FMR": (Fmr, {}),
    "AND": (LogicalOp, {"mnemonic_name": "AND"}),
    "OR": (LogicalOp, {"mnemonic_name": "OR"}),
    "XOR": (LogicalOp, {"mnemonic_name": "XOR"}),
    "NOT": (Not, {}),
    "ADD": (ArithOp, {"mnemonic_name": "ADD"}),
    "SUB": (ArithOp, {"mnemonic_name": "SUB"}),
    "SMIS": (SMIS, {}),
    "SMIT": (SMIT, {}),
    "QWAIT": (QWait, {}),
    "QWAITR": (QWaitR, {}),
}

_MNEMONIC_OF = {(cls, fixed.get("mnemonic_name")): name
                for name, (cls, fixed) in MNEMONICS.items()}


def mnemonic_of(instruction) -> str | None:
    """The :data:`MNEMONICS` key an instruction object was built from
    (None for a bundle or an object of no single-word class)."""
    return _MNEMONIC_OF.get(
        (type(instruction), getattr(instruction, "mnemonic_name", None)))
