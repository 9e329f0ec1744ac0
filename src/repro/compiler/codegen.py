"""eQASM code generation: schedule -> assembly program.

This is the compiler backend stage the DSE of Section 4.2 sweeps.  The
counting functions take exactly the three axes of Fig. 7 as a
:class:`CodegenOptions`:

* **timing specification** — ``ts1`` (a separate QWAIT before every
  timing point, the QuMIS fashion), ``ts2`` (the wait occupies a VLIW
  slot inside a bundle word), ``ts3`` (a PI field of ``pi_width`` bits
  inside the bundle word, with QWAIT only for longer waits);
* **SOMQ** — merge identical operations at one timing point into a
  single slot targeting a qubit-set register, or give each (operation,
  qubit) its own slot;
* **VLIW width** — how many slots fit one instruction word.

Two output modes:

* :func:`count_instructions` reproduces the paper's instruction-count
  metric under the stated DSE assumption that "the target registers
  can always provide the required qubit (pair) list" (no SMIS/SMIT
  counted), for any VLIW width and timing mode;
* :meth:`EQASMCodeGenerator.generate` emits a runnable
  :class:`~repro.core.program.Program` for one instantiation, including
  SMIS/SMIT target-register management (LRU allocation over the S and
  T registers).  It reads the VLIW and PI widths from the
  instantiation's binary format and always uses the paper's chosen
  configuration: ts3 timing with SOMQ.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.compiler.scheduler import Schedule, ScheduledOp
from repro.core.errors import ConfigurationError
from repro.core.instructions import (
    Bundle,
    BundleOperation,
    QWait,
    SMIS,
    SMIT,
    Stop,
)
from repro.core.isa import EQASMInstantiation
from repro.core.operations import OperationKind, OperationSet
from repro.core.program import Program

#: Instruction words the classical pipeline issues per quantum cycle
#: (quantum_cycle_ns / classical_cycle_ns; 20 ns / 10 ns for the
#: paper's instantiations).  Bounds Rallowed for the issue-rate
#: feasibility pass of :class:`EQASMCodeGenerator`.
WORDS_PER_CYCLE = 2


@dataclass(frozen=True)
class CodegenOptions:
    """The DSE axes (Section 4.2)."""

    timing: str = "ts3"       # "ts1" | "ts2" | "ts3"
    pi_width: int = 3         # wPI, only meaningful for ts3
    somq: bool = True
    vliw_width: int = 2

    def __post_init__(self) -> None:
        if self.timing not in ("ts1", "ts2", "ts3"):
            raise ConfigurationError(f"unknown timing mode {self.timing!r}")
        if self.timing == "ts2" and self.vliw_width < 2:
            raise ConfigurationError(
                "ts2 needs a VLIW width of at least 2 (Section 4.2)")
        if self.timing == "ts3" and not 1 <= self.pi_width <= 8:
            raise ConfigurationError("wPI must be in 1..8")
        if self.vliw_width < 1:
            raise ConfigurationError("VLIW width must be positive")

    @property
    def max_pi(self) -> int:
        """Largest pre-interval encodable in the PI field."""
        return (1 << self.pi_width) - 1


@dataclass(frozen=True)
class Slot:
    """One abstract VLIW slot before word packing."""

    name: str
    qubits: tuple[int, ...] = ()               # single-qubit targets
    pairs: tuple[tuple[int, int], ...] = ()    # two-qubit targets
    is_wait: bool = False
    wait_cycles: int = 0


def form_slots(point_ops: list[ScheduledOp], somq: bool) -> list[Slot]:
    """Group one timing point's operations into VLIW slots.

    With SOMQ, identical operation names merge into one slot over a
    qubit set (or pair set); without it, every operation instance takes
    its own slot.
    """
    slots: list[Slot] = []
    if not somq:
        for entry in point_ops:
            if entry.op.is_two_qubit:
                slots.append(Slot(name=entry.op.name,
                                  pairs=(entry.op.qubits,)))
            else:
                slots.append(Slot(name=entry.op.name,
                                  qubits=entry.op.qubits))
        return slots
    singles: OrderedDict[str, list[int]] = OrderedDict()
    doubles: OrderedDict[str, list[tuple[int, int]]] = OrderedDict()
    for entry in point_ops:
        if entry.op.is_two_qubit:
            doubles.setdefault(entry.op.name, []).append(entry.op.qubits)
        else:
            singles.setdefault(entry.op.name, []).append(entry.op.qubits[0])
    for name, qubits in singles.items():
        slots.append(Slot(name=name, qubits=tuple(sorted(qubits))))
    for name, pairs in doubles.items():
        slots.append(Slot(name=name, pairs=tuple(sorted(pairs))))
    return slots


def count_point_words(gap: int, num_slots: int,
                      options: CodegenOptions) -> int:
    """Instruction words needed for one timing point (pure counting).

    ``gap`` is the interval in cycles since the previous timing point;
    ``num_slots`` the number of formed slots.
    """
    w = options.vliw_width
    words = math.ceil(num_slots / w) if num_slots else 0
    if options.timing == "ts1":
        # Every timing point is specified by a separate QWAIT
        # instruction (the QuMIS fashion) — even back-to-back points.
        return words + 1
    if options.timing == "ts2":
        # The wait occupies one slot inside the bundle words.
        return math.ceil((num_slots + 1) / w)
    # ts3: gaps up to max_pi ride in the PI field for free.
    if gap > options.max_pi:
        return words + 1
    return words


def count_instructions(schedule: Schedule,
                       options: CodegenOptions) -> int:
    """Total instruction count of a schedule under a DSE configuration.

    Reproduces the paper's Fig. 7 metric: quantum instructions only,
    target registers assumed pre-loaded.
    """
    # Operation durations do not matter for counting; use a throwaway
    # grouping based purely on names/qubits.
    total = 0
    previous_cycle = 0
    for cycle, point_ops in schedule.by_cycle():
        gap = cycle - previous_cycle
        previous_cycle = cycle
        slots = form_slots(point_ops, somq=options.somq)
        total += count_point_words(gap, len(slots), options)
    return total


@dataclass
class _RegisterAllocator:
    """LRU allocator for one target-register file (S or T)."""

    prefix: str
    capacity: int
    _assignment: OrderedDict = field(default_factory=OrderedDict)

    def lookup(self, key) -> tuple[int, bool]:
        """Return (register index, needs_set).

        ``needs_set`` is True when a SMIS/SMIT must be emitted because
        the value was not already resident.
        """
        if key in self._assignment:
            self._assignment.move_to_end(key)
            return self._assignment[key], False
        if len(self._assignment) < self.capacity:
            index = len(self._assignment)
        else:
            _, index = self._assignment.popitem(last=False)
        self._assignment[key] = index
        return index, True


class EQASMCodeGenerator:
    """Schedule -> executable eQASM program for an instantiation."""

    def __init__(self, isa: EQASMInstantiation):
        self.isa = isa

    def generate(self, schedule: Schedule,
                 initialize_cycles: int = 10000,
                 final_wait_cycles: int = 0,
                 emit_stop: bool = True) -> Program:
        """Emit a runnable program for the schedule.

        ``initialize_cycles`` prepends the idling initialization the
        paper uses ("QWAIT 10000 initializes both qubits by idling them
        for 200 us"); ``final_wait_cycles`` appends a trailing wait
        (e.g. to cover a final measurement window).

        Target-register setup is hoisted: every SMIS/SMIT whose register
        is written for the first time moves to a preamble before the
        initialization wait, so the dense bundle stream is not diluted
        by setup instructions (which would raise Rreq mid-timeline).
        Only register *rewrites* (LRU eviction when a program uses more
        masks than registers) stay inline.
        """
        s_alloc = _RegisterAllocator(
            "S", self.isa.num_single_qubit_target_registers)
        t_alloc = _RegisterAllocator(
            "T", self.isa.num_two_qubit_target_registers)
        # Pass 1: allocate registers and collect per-point setup needs.
        points: list[tuple[int, list[BundleOperation]]] = []
        setups: list = []  # (point index, SMIS/SMIT instruction)
        previous_cycle = 0
        for cycle, point_ops in schedule.by_cycle():
            gap = cycle - previous_cycle
            previous_cycle = cycle
            point_index = len(points)
            slots = form_slots(point_ops, somq=True)
            bundle_ops = []
            for slot in slots:
                operand, setup = self._slot_operand(slot, s_alloc, t_alloc)
                if setup is not None:
                    setups.append((point_index, setup))
                bundle_ops.append(operand)
            points.append((gap, bundle_ops))
        # Split setups: first write to a register hoists to the
        # preamble; later rewrites stay in front of their point.
        written: set[tuple[str, int]] = set()
        preamble: list = []
        inline: dict[int, list] = {}
        for point_index, setup in setups:
            if isinstance(setup, SMIS):
                key = ("S", setup.sd)
            else:
                key = ("T", setup.td)
            if key not in written:
                written.add(key)
                preamble.append(setup)
            else:
                inline.setdefault(point_index, []).append(setup)
        # Pass 1.5: issue-rate feasibility (Rreq <= Rallowed,
        # Section 3.1).  The machine anchors its deterministic-domain
        # timer at the first timing point with zero slack, so the last
        # VLIW word of every later point must issue within the
        # programmed gap: wide (multi-word) bundles or inline register
        # rewrites at short gaps would reserve after their trigger was
        # due.  The paper makes the compiler responsible for this, so
        # stretch any infeasible gap until the point fits.
        points = self._stretch_infeasible_gaps(points, inline)
        # Pass 2: emission.
        program = Program()
        program.extend(preamble)
        if initialize_cycles > 0:
            self._emit_wait(program, initialize_cycles)
        for point_index, (gap, bundle_ops) in enumerate(points):
            program.extend(inline.get(point_index, []))
            self._emit_point(program, gap, bundle_ops)
        if final_wait_cycles > 0:
            self._emit_wait(program, final_wait_cycles)
        if emit_stop:
            program.append(Stop())
        return program

    # ------------------------------------------------------------------
    # Issue-rate feasibility
    # ------------------------------------------------------------------
    def _wait_words(self, cycles: int) -> int:
        """Instruction words :meth:`_emit_wait` needs for a wait."""
        return max(1, math.ceil(cycles / self.isa.max_qwait))

    def _point_words(self, gap: int, operand_count: int) -> int:
        """Instruction words one timing point occupies in the binary.

        Mirrors :meth:`_emit_point` plus the assembler's bundle
        splitting: ``operand_count`` slots pack into
        ``ceil(count / vliw_width)`` words, preceded by explicit QWAITs
        whenever the gap does not fit the PI field.
        """
        words = max(1, math.ceil(operand_count / self.isa.vliw_width))
        if gap <= self.isa.max_pi:
            return words
        return words + self._wait_words(gap)

    def _stretch_infeasible_gaps(self, points, inline):
        """Delay timing points the classical pipeline cannot feed.

        The reserve of point *k* completes when its last word issues,
        one classical cycle per word (inline SMIS/SMIT rewrites
        included); relative to the zero-slack anchor at the first
        point, feasibility requires the cumulative word count to stay
        within :data:`WORDS_PER_CYCLE` words per programmed cycle.  Slack
        from generous gaps carries forward (the timing queue buffers
        points reserved early).
        """
        adjusted: list[tuple[int, list[BundleOperation]]] = []
        slack = 0
        for index, (gap, bundle_ops) in enumerate(points):
            if index == 0:
                adjusted.append((gap, bundle_ops))
                continue
            setup_words = len(inline.get(index, []))
            cost = setup_words + self._point_words(gap, len(bundle_ops))
            while slack + gap * WORDS_PER_CYCLE < cost:
                gap += 1
                cost = (setup_words +
                        self._point_words(gap, len(bundle_ops)))
            slack += gap * WORDS_PER_CYCLE - cost
            adjusted.append((gap, bundle_ops))
        return adjusted

    # ------------------------------------------------------------------
    # Emission helpers
    # ------------------------------------------------------------------
    def _emit_wait(self, program: Program, cycles: int) -> None:
        maximum = self.isa.max_qwait
        while cycles > maximum:
            program.append(QWait(cycles=maximum))
            cycles -= maximum
        program.append(QWait(cycles=cycles))

    def _slot_operand(self, slot: Slot,
                      s_alloc: _RegisterAllocator,
                      t_alloc: _RegisterAllocator):
        """Allocate a target register for a slot.

        Returns ``(operand, setup)`` where ``setup`` is the SMIS/SMIT
        needed before this slot's point (None when the mask is already
        resident).
        """
        operation = self.isa.operations.get(slot.name)
        if operation.kind is OperationKind.TWO_QUBIT:
            key = frozenset(slot.pairs)
            index, needs_set = t_alloc.lookup(key)
            setup = SMIT(td=index, pairs=frozenset(slot.pairs)) \
                if needs_set else None
            return BundleOperation(name=slot.name,
                                   register=("T", index)), setup
        key = frozenset(slot.qubits)
        index, needs_set = s_alloc.lookup(key)
        setup = SMIS(sd=index, qubits=frozenset(slot.qubits)) \
            if needs_set else None
        return BundleOperation(name=slot.name, register=("S", index)), setup

    def _emit_point(self, program: Program, gap: int,
                    bundle_ops: list[BundleOperation]) -> None:
        """Emit the wait + bundle instructions for one timing point."""
        if not bundle_ops:
            if gap:
                self._emit_wait(program, gap)
            return
        if gap <= self.isa.max_pi:
            program.append(Bundle(operations=tuple(bundle_ops), pi=gap,
                                  explicit_pi=True))
            return
        # ts3: a gap past the PI field takes an explicit QWAIT followed
        # by a PI=0 bundle.  No instantiation encodes ts1's per-point
        # QWAIT or ts2's wait-in-slot, so both are counting-only.
        self._emit_wait(program, gap)
        program.append(Bundle(operations=tuple(bundle_ops), pi=0,
                              explicit_pi=True))

