"""Tests for the circuit IR and the schedulers."""

import pytest

from repro.compiler import (
    Circuit,
    CircuitOp,
    schedule_asap,
    schedule_with_interval,
)
from repro.core.errors import AssemblyError
from repro.core.operations import default_operation_set


@pytest.fixture(scope="module")
def ops():
    return default_operation_set()


class TestCircuitIR:
    def test_add_and_iterate(self):
        circuit = Circuit("t", 2).add("X", 0).add("CZ", 0, 1)
        assert len(circuit) == 2
        assert [str(op) for op in circuit] == ["X q0", "CZ q0, q1"]

    def test_rejects_out_of_range_qubit(self):
        with pytest.raises(AssemblyError):
            Circuit("t", 2).add("X", 5)

    def test_rejects_duplicate_operand(self):
        with pytest.raises(AssemblyError):
            CircuitOp("CZ", (1, 1))

    def test_rejects_three_qubits(self):
        with pytest.raises(AssemblyError):
            CircuitOp("CCX", (0, 1, 2))

    def test_two_qubit_fraction(self):
        circuit = Circuit("t", 2).add("X", 0).add("CZ", 0, 1).add("Y", 1)
        assert circuit.two_qubit_fraction() == pytest.approx(1 / 3)

    def test_empty_fraction_is_zero(self):
        assert Circuit("t", 1).two_qubit_fraction() == 0.0

    def test_used_qubits(self):
        circuit = Circuit("t", 5).add("X", 3).add("CZ", 0, 1)
        assert circuit.used_qubits() == (0, 1, 3)

    def test_extend(self):
        a = Circuit("a", 2).add("X", 0)
        b = Circuit("b", 2).add("Y", 1)
        a.extend(b)
        assert len(a) == 2

    def test_validate_against_checks_arity(self, ops):
        circuit = Circuit("t", 2)
        circuit.operations.append(CircuitOp("CZ", (0,)))
        with pytest.raises(AssemblyError):
            circuit.validate_against(ops)

    def test_validate_against_unknown_op(self, ops):
        circuit = Circuit("t", 1).add("NOSUCH", 0)
        with pytest.raises(Exception):
            circuit.validate_against(ops)


class TestASAPScheduler:
    def test_independent_ops_parallel(self, ops):
        circuit = Circuit("t", 2).add("X", 0).add("Y", 1)
        schedule = schedule_asap(circuit, ops)
        assert schedule.cycles() == [0]
        assert len(schedule.scheduled) == 2

    def test_dependent_ops_serialise(self, ops):
        circuit = Circuit("t", 1).add("X", 0).add("Y", 0)
        schedule = schedule_asap(circuit, ops)
        assert schedule.cycles() == [0, 1]

    def test_two_qubit_gate_blocks_both(self, ops):
        circuit = Circuit("t", 2).add("CZ", 0, 1).add("X", 0).add("Y", 1)
        schedule = schedule_asap(circuit, ops)
        # CZ takes 2 cycles: X and Y start at cycle 2, in parallel.
        assert [entry.cycle for entry in schedule.scheduled] == [0, 2, 2]

    def test_measurement_duration_respected(self, ops):
        circuit = Circuit("t", 1).add("MEASZ", 0).add("X", 0)
        schedule = schedule_asap(circuit, ops)
        assert [entry.cycle for entry in schedule.scheduled] == [0, 15]

    def test_makespan(self, ops):
        circuit = Circuit("t", 1).add("X", 0).add("MEASZ", 0)
        schedule = schedule_asap(circuit, ops)
        assert schedule.makespan() == 1 + 15

    def test_gaps(self, ops):
        circuit = Circuit("t", 1).add("X", 0).add("MEASZ", 0)
        schedule = schedule_asap(circuit, ops)
        assert schedule.gaps() == [0, 1]

    def test_by_cycle_groups(self, ops):
        circuit = Circuit("t", 3).add("X", 0).add("X", 1).add("Y", 0)
        schedule = schedule_asap(circuit, ops)
        grouped = dict(schedule.by_cycle())
        assert len(grouped[0]) == 2
        assert len(grouped[1]) == 1


class TestOtherSchedulers:
    def test_interval_schedule(self, ops):
        circuit = Circuit("t", 1).add("X", 0).add("Y", 0).add("X90", 0)
        schedule = schedule_with_interval(circuit, ops, 16)
        assert schedule.cycles() == [0, 16, 32]

    def test_interval_respects_long_durations(self, ops):
        # A measurement (15 cycles) stretches a 2-cycle interval.
        circuit = Circuit("t", 1).add("MEASZ", 0).add("X", 0)
        schedule = schedule_with_interval(circuit, ops, 2)
        assert schedule.cycles() == [0, 15]

    def test_interval_must_be_positive(self, ops):
        with pytest.raises(ValueError):
            schedule_with_interval(Circuit("t", 1).add("X", 0), ops, 0)
