"""ASAP list scheduler: circuit IR -> timing-point schedule.

The compiler backend performs "qubit mapping and scheduling, and
low-level optimization" (Section 2.1).  This pass assigns each
operation a start cycle as early as its operands allow (ASAP), using
the durations configured in the operation set (1 cycle for single-qubit
gates, 2 for CZ, 15 for measurement in the paper's instantiation).

The resulting :class:`Schedule` is the input of both the eQASM code
generator and the DSE instruction counters; the paper's "parallelism"
of a workload is exactly the average number of operations per timing
point of this schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.ir import Circuit, CircuitOp
from repro.core.operations import OperationSet


@dataclass(frozen=True)
class ScheduledOp:
    """An operation with its assigned start cycle and duration."""

    cycle: int
    op: CircuitOp
    duration: int


@dataclass
class Schedule:
    """Operations grouped by start cycle (the timeline to encode)."""

    name: str
    scheduled: list[ScheduledOp] = field(default_factory=list)

    def cycles(self) -> list[int]:
        """Distinct timing points, ascending."""
        return sorted({entry.cycle for entry in self.scheduled})

    def by_cycle(self) -> list[tuple[int, list[ScheduledOp]]]:
        """(cycle, operations) pairs in time order (single pass)."""
        buckets: dict[int, list[ScheduledOp]] = {}
        for entry in self.scheduled:
            buckets.setdefault(entry.cycle, []).append(entry)
        return sorted(buckets.items())

    def makespan(self) -> int:
        """Cycle at which the last operation completes."""
        return max((entry.cycle + entry.duration
                    for entry in self.scheduled), default=0)

    def gaps(self) -> list[int]:
        """Interval (cycles) before each timing point.

        The first entry is the interval from cycle 0 to the first
        point; these are the values the timing-specification methods
        (ts1/ts2/ts3) must encode.
        """
        points = self.cycles()
        gaps = []
        previous = 0
        for cycle in points:
            gaps.append(cycle - previous)
            previous = cycle
        return gaps


def schedule_asap(circuit: Circuit, operations: OperationSet,
                  name: str | None = None) -> Schedule:
    """Greedy in-order ASAP scheduling with qubit resource constraints.

    Each operation starts at the earliest cycle at which all its qubits
    are free; qubits stay busy for the operation's configured duration.
    In-order processing preserves per-qubit program order, which is the
    only dependence that matters for circuits in executable form.
    """
    circuit.validate_against(operations)
    free_at = {qubit: 0 for qubit in range(circuit.num_qubits)}
    scheduled: list[ScheduledOp] = []
    for op in circuit.operations:
        duration = operations.get(op.name).duration_cycles
        start = max(free_at[qubit] for qubit in op.qubits)
        scheduled.append(ScheduledOp(cycle=start, op=op, duration=duration))
        for qubit in op.qubits:
            free_at[qubit] = start + max(duration, 1)
    return Schedule(name=name or circuit.name, scheduled=scheduled)


def schedule_with_interval(circuit: Circuit, operations: OperationSet,
                           interval_cycles: int,
                           name: str | None = None) -> Schedule:
    """Serial schedule with a fixed interval between operation starts.

    Used by the Fig. 12 experiment: "randomized benchmarking was
    performed for different intervals between the starting points of
    consecutive gates (320, 160, 80, 40, and 20 ns)".
    """
    if interval_cycles < 1:
        raise ValueError("interval must be at least one cycle")
    circuit.validate_against(operations)
    scheduled: list[ScheduledOp] = []
    cycle = 0
    for op in circuit.operations:
        duration = operations.get(op.name).duration_cycles
        scheduled.append(ScheduledOp(cycle=cycle, op=op, duration=duration))
        cycle += max(interval_cycles, duration)
    return Schedule(name=name or circuit.name, scheduled=scheduled)
