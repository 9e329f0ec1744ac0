"""Instruction dataclasses for eQASM (Table 1).

The assembly level is the definition level of eQASM; these classes are
the in-memory form of parsed assembly and the input/output of the binary
encoder.  Each class knows how to print itself back to canonical
assembly text (``to_assembly``), which gives us parse/print round-trip
tests for free.

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

from dataclasses import dataclass, field

from repro.core.errors import AssemblyError
from repro.core.registers import ComparisonFlag


class Instruction:
    """Base class: every instruction renders to assembly text."""

    def to_assembly(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_assembly()


# ----------------------------------------------------------------------
# Auxiliary classical instructions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Nop(Instruction):
    """No operation."""

    def to_assembly(self) -> str:
        return "NOP"


@dataclass(frozen=True)
class Stop(Instruction):
    """End of program (instantiation extension; QuMIS precedent)."""

    def to_assembly(self) -> str:
        return "STOP"


@dataclass(frozen=True)
class Cmp(Instruction):
    """``CMP Rs, Rt`` — set all comparison flags from Rs vs Rt."""

    rs: int
    rt: int

    def to_assembly(self) -> str:
        return f"CMP R{self.rs}, R{self.rt}"


@dataclass(frozen=True)
class Br(Instruction):
    """``BR <flag>, Offset`` — PC += Offset if the flag is '1'.

    ``target`` may be a label (str, resolved by the assembler) or an
    already-resolved integer offset in instructions relative to the
    *next* PC, matching "jump to PC + Offset".
    """

    condition: ComparisonFlag
    target: str | int

    def to_assembly(self) -> str:
        return f"BR {self.condition.name}, {self.target}"

    def with_offset(self, offset: int) -> "Br":
        """A copy with the label replaced by a numeric offset."""
        return Br(condition=self.condition, target=offset)


@dataclass(frozen=True)
class Fbr(Instruction):
    """``FBR <flag>, Rd`` — fetch a comparison flag into a GPR."""

    condition: ComparisonFlag
    rd: int

    def to_assembly(self) -> str:
        return f"FBR {self.condition.name}, R{self.rd}"


@dataclass(frozen=True)
class Ldi(Instruction):
    """``LDI Rd, Imm`` — Rd = sign_ext(Imm[19..0], 32)."""

    rd: int
    imm: int

    def to_assembly(self) -> str:
        return f"LDI R{self.rd}, {self.imm}"


@dataclass(frozen=True)
class Ldui(Instruction):
    """``LDUI Rd, Imm, Rs`` — Rd = Imm[14..0] :: Rs[16..0]."""

    rd: int
    imm: int
    rs: int

    def to_assembly(self) -> str:
        return f"LDUI R{self.rd}, {self.imm}, R{self.rs}"


@dataclass(frozen=True)
class Ld(Instruction):
    """``LD Rd, Rt(Imm)`` — Rd = memory[Rt + Imm]."""

    rd: int
    rt: int
    imm: int

    def to_assembly(self) -> str:
        return f"LD R{self.rd}, R{self.rt}({self.imm})"


@dataclass(frozen=True)
class St(Instruction):
    """``ST Rs, Rt(Imm)`` — memory[Rt + Imm] = Rs."""

    rs: int
    rt: int
    imm: int

    def to_assembly(self) -> str:
        return f"ST R{self.rs}, R{self.rt}({self.imm})"


@dataclass(frozen=True)
class Fmr(Instruction):
    """``FMR Rd, Qi`` — fetch the last measurement result of qubit i.

    Stalls while Q_i is invalid (pending measurements outstanding)."""

    rd: int
    qubit: int

    def to_assembly(self) -> str:
        return f"FMR R{self.rd}, Q{self.qubit}"


@dataclass(frozen=True)
class LogicalOp(Instruction):
    """``AND/OR/XOR Rd, Rs, Rt`` — bitwise logical operations."""

    mnemonic_name: str  # "AND" | "OR" | "XOR"
    rd: int
    rs: int
    rt: int

    def __post_init__(self) -> None:
        if self.mnemonic_name not in ("AND", "OR", "XOR"):
            raise AssemblyError(
                f"invalid logical mnemonic {self.mnemonic_name}")

    def to_assembly(self) -> str:
        return f"{self.mnemonic_name} R{self.rd}, R{self.rs}, R{self.rt}"


@dataclass(frozen=True)
class Not(Instruction):
    """``NOT Rd, Rt`` — bitwise complement."""

    rd: int
    rt: int

    def to_assembly(self) -> str:
        return f"NOT R{self.rd}, R{self.rt}"


@dataclass(frozen=True)
class ArithOp(Instruction):
    """``ADD/SUB Rd, Rs, Rt`` — 32-bit wrap-around arithmetic."""

    mnemonic_name: str  # "ADD" | "SUB"
    rd: int
    rs: int
    rt: int

    def __post_init__(self) -> None:
        if self.mnemonic_name not in ("ADD", "SUB"):
            raise AssemblyError(
                f"invalid arithmetic mnemonic {self.mnemonic_name}")

    def to_assembly(self) -> str:
        return f"{self.mnemonic_name} R{self.rd}, R{self.rs}, R{self.rt}"


# ----------------------------------------------------------------------
# Waiting instructions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QWait(Instruction):
    """``QWAIT Imm`` — new timing point Imm cycles after the last one."""

    cycles: int

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise AssemblyError("QWAIT duration cannot be negative")

    def to_assembly(self) -> str:
        return f"QWAIT {self.cycles}"


@dataclass(frozen=True)
class QWaitR(Instruction):
    """``QWAITR Rs`` — register-valued waiting."""

    rs: int

    def to_assembly(self) -> str:
        return f"QWAITR R{self.rs}"


# ----------------------------------------------------------------------
# Target-specify instructions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SMIS(Instruction):
    """``SMIS Sd, {q0, q1, ...}`` — set a single-qubit target register."""

    sd: int
    qubits: frozenset[int]

    def __post_init__(self) -> None:
        if not self.qubits:
            raise AssemblyError(f"SMIS S{self.sd}: empty qubit list")
        if any(q < 0 for q in self.qubits):
            raise AssemblyError(f"SMIS S{self.sd}: negative qubit address")

    def to_assembly(self) -> str:
        body = ", ".join(str(q) for q in sorted(self.qubits))
        return f"SMIS S{self.sd}, {{{body}}}"

    def mask(self) -> int:
        """The register content: one bit per selected qubit address."""
        value = 0
        for qubit in self.qubits:
            value |= 1 << qubit
        return value


@dataclass(frozen=True)
class SMIT(Instruction):
    """``SMIT Td, {(s, t), ...}`` — set a two-qubit target register.

    Pairs are directed (source, target) tuples; the mask encoding maps
    each pair to its edge address on the chip, so building the mask
    needs the topology and happens in the assembler.
    """

    td: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise AssemblyError(f"SMIT T{self.td}: empty pair list")

    def to_assembly(self) -> str:
        body = ", ".join(f"({s}, {t})" for s, t in sorted(self.pairs))
        return f"SMIT T{self.td}, {{{body}}}"


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


#: Mnemonic -> instruction class, for the parser's classical dispatch.
CLASSICAL_MNEMONICS = {
    "NOP": Nop,
    "STOP": Stop,
    "CMP": Cmp,
    "BR": Br,
    "FBR": Fbr,
    "LDI": Ldi,
    "LDUI": Ldui,
    "LD": Ld,
    "ST": St,
    "FMR": Fmr,
    "AND": LogicalOp,
    "OR": LogicalOp,
    "XOR": LogicalOp,
    "NOT": Not,
    "ADD": ArithOp,
    "SUB": ArithOp,
}

WAITING_MNEMONICS = {"QWAIT": QWait, "QWAITR": QWaitR}
TARGET_MNEMONICS = {"SMIS": SMIS, "SMIT": SMIT}
