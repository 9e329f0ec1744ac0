"""Tests for the statevector oracle (``quantum_oracle.Statevector``)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantum_oracle import Statevector, basis_state, zero_state
from repro.core.errors import PlantError
from repro.quantum import gates


class TestConstruction:
    def test_zero_state(self):
        state = zero_state(2)
        assert state.probability(0) == pytest.approx(1.0)

    def test_basis_state(self):
        state = basis_state(2, 2)  # |10>
        assert state.probability(2) == pytest.approx(1.0)

    def test_basis_state_out_of_range(self):
        with pytest.raises(PlantError):
            basis_state(2, 4)

    def test_rejects_zero_qubits(self):
        with pytest.raises(PlantError):
            Statevector(0)

    def test_rejects_unnormalised(self):
        with pytest.raises(PlantError):
            Statevector(1, np.array([1.0, 1.0]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(PlantError):
            Statevector(2, np.array([1.0, 0.0]))


class TestSingleQubitGates:
    def test_x_flips(self):
        state = zero_state(1)
        state.apply_gate(gates.X, (0,))
        assert state.probability(1) == pytest.approx(1.0)

    def test_h_makes_superposition(self):
        state = zero_state(1)
        state.apply_gate(gates.H, (0,))
        assert state.probability(0) == pytest.approx(0.5)
        assert state.probability(1) == pytest.approx(0.5)

    def test_x90_gives_half_probability(self):
        state = zero_state(1)
        state.apply_gate(gates.X90, (0,))
        assert state.measure_probability_one(0) == pytest.approx(0.5)

    def test_gate_on_msb_convention(self):
        # Qubit 0 is the most significant bit: X on qubit 0 of |00>
        # gives |10> = index 2.
        state = zero_state(2)
        state.apply_gate(gates.X, (0,))
        assert state.probability(2) == pytest.approx(1.0)

    def test_gate_on_lsb(self):
        state = zero_state(2)
        state.apply_gate(gates.X, (1,))
        assert state.probability(1) == pytest.approx(1.0)

    def test_rejects_bad_qubit(self):
        state = zero_state(1)
        with pytest.raises(PlantError):
            state.apply_gate(gates.X, (3,))

    def test_rejects_duplicate_qubits(self):
        state = zero_state(2)
        with pytest.raises(PlantError):
            state.apply_gate(gates.CZ, (0, 0))

    def test_rejects_shape_mismatch(self):
        state = zero_state(2)
        with pytest.raises(PlantError):
            state.apply_gate(gates.CZ, (0,))


class TestTwoQubitGates:
    def test_cnot_ordering(self):
        # Control = first listed qubit.
        state = zero_state(2)
        state.apply_gate(gates.X, (0,))
        state.apply_gate(gates.CNOT, (0, 1))
        assert state.probability(3) == pytest.approx(1.0)

    def test_cnot_reversed_targets(self):
        state = zero_state(2)
        state.apply_gate(gates.X, (1,))
        state.apply_gate(gates.CNOT, (1, 0))
        assert state.probability(3) == pytest.approx(1.0)

    def test_bell_state(self):
        state = zero_state(2)
        state.apply_gate(gates.H, (0,))
        state.apply_gate(gates.CNOT, (0, 1))
        assert state.probability(0) == pytest.approx(0.5)
        assert state.probability(3) == pytest.approx(0.5)

    def test_cz_phase(self):
        state = zero_state(2)
        state.apply_gate(gates.X, (0,))
        state.apply_gate(gates.X, (1,))
        state.apply_gate(gates.CZ, (0, 1))
        amplitudes = state.amplitudes
        assert amplitudes[3] == pytest.approx(-1.0)

    def test_swap(self):
        state = zero_state(2)
        state.apply_gate(gates.X, (0,))
        state.apply_gate(gates.SWAP, (0, 1))
        assert state.probability(1) == pytest.approx(1.0)

    def test_three_qubit_embedding(self):
        state = zero_state(3)
        state.apply_gate(gates.X, (0,))
        state.apply_gate(gates.CNOT, (0, 2))
        assert state.probability(0b101) == pytest.approx(1.0)


class TestMeasurement:
    def test_probability_out_of_range(self):
        state = zero_state(1)
        with pytest.raises(PlantError):
            state.measure_probability_one(5)


class TestFidelity:
    def test_self_fidelity(self):
        state = zero_state(2)
        assert state.fidelity(state.copy()) == pytest.approx(1.0)

    def test_orthogonal_fidelity(self):
        assert zero_state(1).fidelity(basis_state(1, 1)) == pytest.approx(0.0)

    def test_mismatched_sizes(self):
        with pytest.raises(PlantError):
            zero_state(1).fidelity(zero_state(2))


@st.composite
def random_single_gates(draw):
    """A short random sequence of standard single-qubit gate names."""
    names = st.sampled_from(["X", "Y", "Z", "H", "S", "T", "X90", "Y90"])
    return draw(st.lists(names, min_size=1, max_size=8))


class TestProperties:
    @given(random_single_gates())
    @settings(max_examples=40, deadline=None)
    def test_norm_preserved(self, sequence):
        state = zero_state(1)
        for name in sequence:
            state.apply_gate(gates.STANDARD_GATES[name], (0,))
        assert np.sum(state.probabilities()) == pytest.approx(1.0)

    @given(random_single_gates())
    @settings(max_examples=40, deadline=None)
    def test_apply_then_inverse_is_identity(self, sequence):
        state = zero_state(1)
        for name in sequence:
            state.apply_gate(gates.STANDARD_GATES[name], (0,))
        for name in reversed(sequence):
            state.apply_gate(gates.STANDARD_GATES[name].conj().T, (0,))
        assert state.probability(0) == pytest.approx(1.0)

    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=31))
    @settings(max_examples=30, deadline=None)
    def test_basis_state_probabilities(self, num_qubits, index):
        index = index % (1 << num_qubits)
        state = basis_state(num_qubits, index)
        probabilities = state.probabilities()
        assert probabilities[index] == pytest.approx(1.0)
        assert np.sum(probabilities) == pytest.approx(1.0)
