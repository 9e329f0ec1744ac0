"""Architectural state of the eQASM processor (Fig. 2).

* 32 general-purpose 32-bit registers (GPRs);
* comparison flags written by ``CMP`` and consumed by ``BR``/``FBR``;
* 32 single-qubit (S) and 32 two-qubit (T) quantum-operation target
  registers holding qubit / qubit-pair masks;
* one 1-bit measurement-result register per qubit, with the validity
  counter ``C_i`` of the CFC mechanism (Section 4.3);
* per-qubit execution-flag registers for fast conditional execution.

All register files bounds-check addresses and raise
:class:`~repro.core.errors.InvalidAddressError` on violations.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field

from repro.core.errors import InvalidAddressError
from repro.core.operations import ExecutionFlag

_MASK32 = 0xFFFFFFFF


def to_signed32(value: int) -> int:
    """Interpret the low 32 bits of ``value`` as a signed integer."""
    value &= _MASK32
    return value - (1 << 32) if value & 0x80000000 else value


def to_unsigned32(value: int) -> int:
    """Truncate ``value`` to its low 32 bits."""
    return value & _MASK32


class GPRFile:
    """The 32 x 32-bit general-purpose register file.

    Values are stored as unsigned 32-bit integers; ``read_signed``
    reinterprets them for signed arithmetic and comparisons.
    """

    def __init__(self, num_registers: int = 32):
        self.num_registers = num_registers
        self._values = [0] * num_registers

    def _check(self, address: int) -> None:
        if not 0 <= address < self.num_registers:
            raise InvalidAddressError(
                f"GPR R{address} out of range (0..{self.num_registers - 1})")

    def read(self, address: int) -> int:
        """Unsigned 32-bit value of R<address>."""
        self._check(address)
        return self._values[address]

    def read_signed(self, address: int) -> int:
        """Signed interpretation of R<address>."""
        return to_signed32(self.read(address))

    def write(self, address: int, value: int) -> None:
        """Write the low 32 bits of ``value`` into R<address>."""
        self._check(address)
        self._values[address] = to_unsigned32(value)

    def reset(self) -> None:
        """Zero every register."""
        self._values = [0] * self.num_registers


class ComparisonFlag(enum.IntEnum):
    """Flags stored by ``CMP`` and tested by ``BR`` / fetched by ``FBR``.

    ``CMP Rs, Rt`` sets all of them at once; signed flags compare the
    registers as two's-complement, the ``*U`` variants as unsigned.
    """

    ALWAYS = 0
    NEVER = 1
    EQ = 2
    NE = 3
    LTU = 4
    GEU = 5
    LEU = 6
    GTU = 7
    LT = 8
    GE = 9
    LE = 10
    GT = 11

    def holds(self, rs_value: int, rt_value: int) -> bool:
        """Whether this flag is '1' after ``CMP`` of the two operand
        values — the one comparison rule of the ISA."""
        convert = to_signed32 if self >= ComparisonFlag.LT else to_unsigned32
        return _RELATIONS[self](convert(rs_value), convert(rt_value))


#: Each flag's relation, indexed by flag value (signedness is the
#: operand conversion in :meth:`ComparisonFlag.holds`).
_RELATIONS = (
    lambda s, t: True, lambda s, t: False, operator.eq, operator.ne,
    operator.lt, operator.ge, operator.le, operator.gt,
    operator.lt, operator.ge, operator.le, operator.gt,
)


class ComparisonFlags:
    """Holds the operands of the most recent ``CMP``; every flag is
    tested through :meth:`ComparisonFlag.holds`."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """The power-on state: before any CMP, registers compare as
        0 == 0."""
        self.update(0, 0)

    def update(self, rs_value: int, rt_value: int) -> None:
        """Record the operands every flag is now tested against."""
        self._operands = (rs_value, rt_value)

    def test(self, flag: ComparisonFlag) -> bool:
        """Value of one comparison flag."""
        return flag.holds(*self._operands)


class TargetRegisterFile:
    """Quantum-operation target registers (S or T) holding masks.

    The register *content* is a bit mask — bit ``i`` selects qubit ``i``
    (S registers) or allowed pair ``i`` (T registers).  The mask format
    is an instantiation choice (Section 3.3.2); this file only stores
    and bounds-checks the values.
    """

    def __init__(self, prefix: str, num_registers: int, mask_width: int):
        self.prefix = prefix
        self.num_registers = num_registers
        self.mask_width = mask_width
        self._values = [0] * num_registers

    def _check(self, address: int) -> None:
        if not 0 <= address < self.num_registers:
            raise InvalidAddressError(
                f"{self.prefix}{address} out of range "
                f"(0..{self.num_registers - 1})")

    def read(self, address: int) -> int:
        """Mask stored in register <prefix><address>."""
        self._check(address)
        return self._values[address]

    def write(self, address: int, mask: int) -> None:
        """Store a mask; must fit in the configured mask width."""
        self._check(address)
        if mask < 0 or mask >= (1 << self.mask_width):
            raise InvalidAddressError(
                f"mask {mask:#x} does not fit in {self.mask_width} bits")
        self._values[address] = mask

    def reset(self) -> None:
        """Zero every target register."""
        self._values = [0] * self.num_registers


@dataclass
class MeasurementRegister:
    """One qubit-measurement result register Q_i with validity counter.

    CFC mechanism (Section 4.3): the counter ``pending`` (the paper's
    ``C_i``) increments when a measurement instruction on the qubit
    issues and decrements when the discrimination unit writes a result
    back.  ``Q_i`` is valid only while ``pending == 0``; ``FMR`` stalls
    otherwise.
    """

    value: int = 0
    pending: int = 0

    @property
    def valid(self) -> bool:
        """Whether FMR may read the register without stalling."""
        return self.pending == 0

    def on_measure_issued(self) -> None:
        """A measurement instruction on this qubit entered the pipeline."""
        self.pending += 1

    def on_result(self, result: int) -> None:
        """The discrimination unit wrote back a result."""
        if self.pending == 0:
            raise InvalidAddressError(
                "measurement result arrived with no pending measurement")
        self.value = result
        self.pending -= 1


class MeasurementResultRegisters:
    """The per-qubit Q registers, addressed by physical qubit address."""

    def __init__(self, qubit_addresses: tuple[int, ...]):
        self._registers = {address: MeasurementRegister()
                           for address in qubit_addresses}

    def register(self, qubit: int) -> MeasurementRegister:
        """The Q register of one qubit."""
        if qubit not in self._registers:
            raise InvalidAddressError(f"no measurement register Q{qubit}")
        return self._registers[qubit]

    def reset(self) -> None:
        """Clear all values and pending counters (new shot)."""
        for register in self._registers.values():
            register.value = 0
            register.pending = 0


class ExecutionFlagsFile:
    """Per-qubit execution flags for fast conditional execution.

    Flags are recomputed by fixed combinatorial logic whenever a
    measurement result *finishes* for the qubit (Section 4.3); they are
    independent of the Q-register validity machinery.
    """

    def __init__(self, qubit_addresses: tuple[int, ...]):
        self._last: dict[int, int | None] = {q: None for q in qubit_addresses}
        self._previous: dict[int, int | None] = {q: None
                                                 for q in qubit_addresses}

    def _check(self, qubit: int) -> None:
        if qubit not in self._last:
            raise InvalidAddressError(f"no execution flags for qubit {qubit}")

    def on_result(self, qubit: int, result: int) -> None:
        """Shift in a newly finished measurement result."""
        self._check(qubit)
        self._previous[qubit] = self._last[qubit]
        self._last[qubit] = result

    def test(self, qubit: int, flag: ExecutionFlag) -> bool:
        """Evaluate one execution flag for a qubit.

        Before any measurement has finished, only ALWAYS is '1' (the
        conditional flags have no result to condition on).
        """
        self._check(qubit)
        last = self._last[qubit]
        previous = self._previous[qubit]
        if flag is ExecutionFlag.ALWAYS:
            return True
        if last is None:
            return False
        if flag is ExecutionFlag.LAST_ONE:
            return last == 1
        if flag is ExecutionFlag.LAST_ZERO:
            return last == 0
        if flag is ExecutionFlag.LAST_TWO_EQUAL:
            return previous is not None and previous == last
        raise InvalidAddressError(f"unknown execution flag {flag}")

    def reset(self) -> None:
        """Forget all measurement history (new shot)."""
        for qubit in self._last:
            self._last[qubit] = None
            self._previous[qubit] = None


class DataMemory:
    """Word-addressed data memory (Fig. 2) for ``LD``/``ST``.

    Addresses are byte addresses as in a classical ISA, but accesses
    must be 4-byte aligned; the memory is sparse (a dict) since programs
    only touch a few locations.
    """

    def __init__(self, size_bytes: int = 1 << 20):
        self.size_bytes = size_bytes
        self._words: dict[int, int] = {}

    def _check(self, address: int) -> None:
        if address % 4 != 0:
            raise InvalidAddressError(
                f"unaligned memory access at {address:#x}")
        if not 0 <= address < self.size_bytes:
            raise InvalidAddressError(f"memory address {address:#x} out of "
                                      f"range (size {self.size_bytes:#x})")

    def load(self, address: int) -> int:
        """32-bit word at a byte address (0 if never written)."""
        self._check(address)
        return self._words.get(address, 0)

    def store(self, address: int, value: int) -> None:
        """Store the low 32 bits of ``value``."""
        self._check(address)
        self._words[address] = to_unsigned32(value)

    def reset(self) -> None:
        """Clear the memory."""
        self._words = {}
