"""Tests for quantum operation definitions and the operation set."""

import numpy as np
import pytest

from quantum_oracle import gates_equivalent
from repro.core.errors import ConfigurationError
from repro.core.operations import (
    ExecutionFlag,
    OperationKind,
    OperationSet,
    QuantumOperation,
    add_rabi_amplitude_operations,
    default_operation_set,
)
from repro.quantum import gates


class TestQuantumOperation:
    def test_single_qubit_gate(self):
        op = QuantumOperation("X", OperationKind.SINGLE_QUBIT, 1,
                              unitary=gates.X)
        assert not op.is_conditional
        assert not op.uses_two_qubit_target

    def test_two_qubit_gate(self):
        op = QuantumOperation("CZ", OperationKind.TWO_QUBIT, 2,
                              unitary=gates.CZ)
        assert op.uses_two_qubit_target

    def test_gate_requires_unitary(self):
        with pytest.raises(ConfigurationError):
            QuantumOperation("X", OperationKind.SINGLE_QUBIT, 1)

    def test_measurement_rejects_unitary(self):
        with pytest.raises(ConfigurationError):
            QuantumOperation("MEASZ", OperationKind.MEASUREMENT, 15,
                             unitary=gates.X)

    def test_wrong_unitary_shape(self):
        with pytest.raises(ConfigurationError):
            QuantumOperation("X", OperationKind.SINGLE_QUBIT, 1,
                             unitary=gates.CZ)

    def test_non_unitary_rejected(self):
        with pytest.raises(ConfigurationError):
            QuantumOperation("BAD", OperationKind.SINGLE_QUBIT, 1,
                             unitary=np.array([[1, 0], [0, 2.0]]))

    def test_negative_duration(self):
        with pytest.raises(ConfigurationError):
            QuantumOperation("MEASZ", OperationKind.MEASUREMENT, -1)

    def test_conditional(self):
        op = QuantumOperation("C_X", OperationKind.SINGLE_QUBIT, 1,
                              unitary=gates.X,
                              condition=ExecutionFlag.LAST_ONE)
        assert op.is_conditional


class TestOperationSet:
    def test_qnop_is_opcode_zero(self):
        ops = OperationSet()
        assert ops.opcode("QNOP") == 0
        assert ops.name_for_opcode(0) == "QNOP"

    def test_auto_opcode_assignment(self):
        ops = OperationSet()
        first = ops.add(QuantumOperation("X", OperationKind.SINGLE_QUBIT, 1,
                                         unitary=gates.X))
        second = ops.add(QuantumOperation("Y", OperationKind.SINGLE_QUBIT, 1,
                                          unitary=gates.Y))
        assert second == first + 1

    def test_pinned_opcode(self):
        ops = OperationSet()
        ops.add(QuantumOperation("X", OperationKind.SINGLE_QUBIT, 1,
                                 unitary=gates.X), opcode=0x42)
        assert ops.opcode("X") == 0x42

    def test_duplicate_name_rejected(self):
        ops = OperationSet()
        ops.add(QuantumOperation("X", OperationKind.SINGLE_QUBIT, 1,
                                 unitary=gates.X))
        with pytest.raises(ConfigurationError):
            ops.add(QuantumOperation("x", OperationKind.SINGLE_QUBIT, 1,
                                     unitary=gates.X))

    def test_duplicate_opcode_rejected(self):
        ops = OperationSet()
        ops.add(QuantumOperation("X", OperationKind.SINGLE_QUBIT, 1,
                                 unitary=gates.X), opcode=5)
        with pytest.raises(ConfigurationError):
            ops.add(QuantumOperation("Y", OperationKind.SINGLE_QUBIT, 1,
                                     unitary=gates.Y), opcode=5)

    def test_opcode_width_enforced(self):
        ops = OperationSet(opcode_width=2)
        with pytest.raises(ConfigurationError):
            ops.add(QuantumOperation("X", OperationKind.SINGLE_QUBIT, 1,
                                     unitary=gates.X), opcode=4)

    def test_case_insensitive_lookup(self):
        ops = default_operation_set()
        assert ops.get("measz").kind is OperationKind.MEASUREMENT
        assert "x90" in ops
        assert "NOSUCH" not in ops

    def test_unknown_operation(self):
        ops = OperationSet()
        with pytest.raises(ConfigurationError):
            ops.get("H")

    def test_unknown_opcode(self):
        ops = OperationSet()
        with pytest.raises(ConfigurationError):
            ops.name_for_opcode(77)


class TestDefaultOperationSet:
    def setup_method(self):
        self.ops = default_operation_set()

    def test_paper_experiment_set_present(self):
        # Section 5: {I, X, Y, X90, Y90, Xm90, Ym90} + CZ.
        for name in ("I", "X", "Y", "X90", "Y90", "XM90", "YM90", "CZ"):
            assert name in self.ops

    def test_measurement_duration(self):
        # Section 4.2: measurement time of 15 cycles.
        assert self.ops.get("MEASZ").duration_cycles == 15

    def test_gate_durations(self):
        # Section 4.2: 1-cycle single-qubit gates, 2-cycle CZ.
        assert self.ops.get("X").duration_cycles == 1
        assert self.ops.get("CZ").duration_cycles == 2

    def test_conditional_gates(self):
        # Section 3.5: C_X executes iff the last result was |1>.
        assert self.ops.get("C_X").condition is ExecutionFlag.LAST_ONE
        assert self.ops.get("C_Y").condition is ExecutionFlag.LAST_ONE
        assert self.ops.get("C0_X").condition is ExecutionFlag.LAST_ZERO

    def test_opcodes_unique(self):
        opcodes = [self.ops.opcode(name) for name in self.ops.names()]
        assert len(opcodes) == len(set(opcodes))

    def test_two_qubit_targets(self):
        assert self.ops.get("CZ").uses_two_qubit_target
        assert self.ops.get("CNOT").uses_two_qubit_target
        assert not self.ops.get("X").uses_two_qubit_target


class TestRabiOperations:
    def test_registration(self):
        ops = default_operation_set()
        names = add_rabi_amplitude_operations(ops, num_steps=5)
        assert names == [f"X_AMP_{i}" for i in range(5)]
        for name in names:
            assert name in ops

    def test_rotation_angles(self):
        ops = default_operation_set()
        add_rabi_amplitude_operations(ops, num_steps=3,
                                      max_angle=np.pi)
        # Step 0 is identity, last step is a pi rotation (X).
        zero = ops.get("X_AMP_0").unitary
        last = ops.get("X_AMP_2").unitary
        assert gates_equivalent(zero, gates.I)
        assert gates_equivalent(last, gates.X)

    def test_rejects_single_step(self):
        with pytest.raises(ConfigurationError):
            add_rabi_amplitude_operations(default_operation_set(), 1)
