"""Tests for the Clifford group and RB sequence generation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantum_oracle import gates_equivalent, zero_state
from repro.quantum import gates
from repro.workloads.clifford import (
    PRIMITIVES,
    average_primitives_per_clifford,
    clifford_from_unitary,
    clifford_group,
    compose,
    inverse,
    random_clifford_sequence,
    recovery_clifford,
)
from repro.workloads.rb import (
    rb_dse_circuit,
    rb_primitive_count,
    rb_sequence_circuit,
    survival_reference,
)


class TestCliffordGroup:
    def test_group_has_24_elements(self):
        assert len(clifford_group()) == 24

    def test_average_primitives_is_paper_value(self):
        # Section 5: "the gate count is increased by 1.875 on average".
        assert average_primitives_per_clifford() == pytest.approx(1.875)

    def test_decompositions_reproduce_unitaries(self):
        for clifford in clifford_group():
            matrix = np.eye(2, dtype=complex)
            for name in clifford.decomposition:
                matrix = PRIMITIVES[name] @ matrix
            assert gates_equivalent(matrix, clifford.unitary())

    def test_all_elements_distinct(self):
        keys = set()
        for clifford in clifford_group():
            found = clifford_from_unitary(clifford.unitary())
            keys.add(found.index)
        assert len(keys) == 24

    def test_paulis_are_members(self):
        for pauli in (gates.I, gates.X, gates.Y, gates.Z):
            clifford_from_unitary(pauli)

    def test_hadamard_is_member(self):
        clifford_from_unitary(gates.H)

    def test_t_gate_is_not_member(self):
        from repro.core.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            clifford_from_unitary(gates.T)

    def test_compose_matches_matrix_product(self):
        group = clifford_group()
        rng = np.random.default_rng(1)
        for _ in range(30):
            a = group[int(rng.integers(24))]
            b = group[int(rng.integers(24))]
            composed = compose(a, b)
            expected = b.unitary() @ a.unitary()
            assert gates_equivalent(composed.unitary(), expected)

    def test_inverse_property(self):
        identity = clifford_from_unitary(np.eye(2))
        for element in clifford_group():
            assert compose(element, inverse(element)).index == \
                identity.index

    @given(st.integers(min_value=1, max_value=30),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_recovery_returns_to_identity(self, length, seed):
        rng = np.random.default_rng(seed)
        sequence = random_clifford_sequence(length, rng)
        recovery = recovery_clifford(sequence)
        state = zero_state(1)
        for clifford in sequence + [recovery]:
            state.apply_gate(clifford.unitary(), (0,))
        assert state.probability(0) == pytest.approx(1.0)


class TestRBSequences:
    def test_circuit_structure(self):
        rng = np.random.default_rng(0)
        circuit = rb_sequence_circuit(10, rng)
        names = [op.name for op in circuit]
        assert names[-1] == "MEASZ"
        assert all(name in PRIMITIVES or name == "MEASZ"
                   for name in names)

    def test_circuit_without_measurement(self):
        rng = np.random.default_rng(0)
        circuit = rb_sequence_circuit(5, rng, include_measurement=False)
        assert all(op.name != "MEASZ" for op in circuit)

    def test_noiseless_sequence_returns_to_zero(self):
        rng = np.random.default_rng(3)
        circuit = rb_sequence_circuit(20, rng, include_measurement=False)
        state = zero_state(1)
        for op in circuit:
            state.apply_gate(gates.gate_matrix(op.name), (0,))
        assert state.probability(0) == pytest.approx(1.0)

    def test_primitive_count(self):
        rng = np.random.default_rng(0)
        sequence = random_clifford_sequence(100, rng)
        count = rb_primitive_count(sequence)
        assert count == sum(c.num_primitives for c in sequence)
        # Large samples concentrate near 1.875 per Clifford.
        assert count / 100 == pytest.approx(1.875, abs=0.3)

    def test_dse_circuit_shape(self):
        circuit = rb_dse_circuit(num_qubits=3, cliffords_per_qubit=20,
                                 seed=1)
        assert circuit.num_qubits == 3
        assert circuit.two_qubit_count() == 0
        assert circuit.used_qubits() == (0, 1, 2)

    def test_dse_circuit_deterministic(self):
        a = rb_dse_circuit(num_qubits=2, cliffords_per_qubit=10, seed=5)
        b = rb_dse_circuit(num_qubits=2, cliffords_per_qubit=10, seed=5)
        assert [str(op) for op in a] == [str(op) for op in b]

    def test_survival_reference_decays(self):
        values = [survival_reference(k, 0.01) for k in (0, 10, 100)]
        assert values[0] == pytest.approx(1.0)
        assert values[0] > values[1] > values[2] > 0.5
