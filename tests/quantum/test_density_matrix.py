"""Tests for the density-matrix simulator."""

import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from quantum_oracle import (
    density_matrix_of,
    purity,
    uhlmann_fidelity,
    zero_state,
)
from repro.core.errors import PlantError
from repro.quantum import DensityMatrix, gates
from repro.quantum.noise import amplitude_damping, depolarizing
from repro.quantum.tomography import state_fidelity


class TestConstruction:
    def test_default_is_ground_state(self):
        rho = DensityMatrix(1)
        assert rho.probabilities()[0] == pytest.approx(1.0)
        assert purity(rho) == pytest.approx(1.0)

    def test_from_statevector(self):
        state = zero_state(1)
        state.apply_gate(gates.H, (0,))
        rho = density_matrix_of(state)
        assert purity(rho) == pytest.approx(1.0)
        assert rho.probability_one(0) == pytest.approx(0.5)

    def test_rejects_non_unit_trace(self):
        with pytest.raises(PlantError):
            DensityMatrix(1, np.eye(2))

    def test_rejects_wrong_shape(self):
        with pytest.raises(PlantError):
            DensityMatrix(2, np.eye(2) / 2)


class TestUnitaryEvolution:
    def test_x_flip(self):
        rho = DensityMatrix(1)
        rho.apply_gate(gates.X, (0,))
        assert rho.probability_one(0) == pytest.approx(1.0)

    def test_matches_statevector_on_circuit(self):
        state = zero_state(2)
        rho = DensityMatrix(2)
        for unitary, qubits in [(gates.H, (0,)), (gates.CNOT, (0, 1)),
                                (gates.S, (1,)), (gates.CZ, (0, 1))]:
            state.apply_gate(unitary, qubits)
            rho.apply_gate(unitary, qubits)
        expected = density_matrix_of(state)
        assert np.allclose(rho.matrix, expected.matrix, atol=1e-10)

    def test_qubit_order_embedding(self):
        # CNOT with control qubit 1, target qubit 0.
        rho = DensityMatrix(2)
        rho.apply_gate(gates.X, (1,))
        rho.apply_gate(gates.CNOT, (1, 0))
        assert rho.probabilities()[3] == pytest.approx(1.0)

    def test_three_qubit_middle_gate(self):
        rho = DensityMatrix(3)
        rho.apply_gate(gates.X, (1,))
        assert rho.probabilities()[0b010] == pytest.approx(1.0)

    def test_rejects_duplicate_qubits(self):
        rho = DensityMatrix(2)
        with pytest.raises(PlantError):
            rho.apply_gate(gates.CZ, (1, 1))

    @pytest.mark.parametrize("qubits", [(0, 1, 2), (3, 0, 2), (2, 4, 1)])
    def test_three_qubit_gate_matches_statevector(self, qubits):
        """A k > 2 unitary rides the same superoperator kernel."""
        rng = np.random.default_rng(3)
        unitary = np.linalg.qr(rng.normal(size=(8, 8)) +
                               1j * rng.normal(size=(8, 8)))[0]
        state = zero_state(5)
        rho = DensityMatrix(5)
        for qubit in range(5):
            state.apply_gate(gates.H if qubit % 2 else gates.X90, (qubit,))
            rho.apply_gate(gates.H if qubit % 2 else gates.X90, (qubit,))
        state.apply_gate(unitary, qubits)
        rho.apply_gate(unitary, qubits)
        expected = density_matrix_of(state)
        assert np.allclose(rho.matrix, expected.matrix, atol=1e-12)

    def test_superop_shape_must_match_targets(self):
        rho = DensityMatrix(2)
        with pytest.raises(PlantError, match="superoperator shape"):
            rho.apply_superop(np.eye(4, dtype=complex), (0, 1))
        with pytest.raises(PlantError, match="out of range"):
            rho.apply_superop(np.eye(4, dtype=complex), (2,))


class TestChannels:
    def test_full_amplitude_damping_resets(self):
        rho = DensityMatrix(1)
        rho.apply_gate(gates.X, (0,))
        rho.apply_channel(amplitude_damping(1.0), (0,))
        assert rho.probability_one(0) == pytest.approx(0.0)

    def test_partial_damping(self):
        rho = DensityMatrix(1)
        rho.apply_gate(gates.X, (0,))
        rho.apply_channel(amplitude_damping(0.3), (0,))
        assert rho.probability_one(0) == pytest.approx(0.7)

    def test_depolarizing_reduces_purity(self):
        rho = DensityMatrix(1)
        rho.apply_channel(depolarizing(0.5), (0,))
        assert purity(rho) < 1.0
        assert np.trace(rho.matrix).real == pytest.approx(1.0)

    def test_channel_preserves_trace(self):
        rho = DensityMatrix(2)
        rho.apply_gate(gates.H, (0,))
        rho.apply_gate(gates.CNOT, (0, 1))
        rho.apply_channel(depolarizing(0.2, 2), (0, 1))
        assert np.trace(rho.matrix).real == pytest.approx(1.0)

    def test_channel_on_one_of_two_qubits(self):
        rho = DensityMatrix(2)
        rho.apply_gate(gates.X, (1,))
        rho.apply_channel(amplitude_damping(1.0), (1,))
        assert rho.probabilities()[0] == pytest.approx(1.0)


class TestMeasurement:
    def test_deterministic(self):
        rng = np.random.default_rng(0)
        rho = DensityMatrix(1)
        assert rho.measure(0, rng) == 0
        rho.apply_gate(gates.X, (0,))
        assert rho.measure(0, rng) == 1

    def test_collapse_renormalises(self):
        rho = DensityMatrix(1)
        rho.apply_gate(gates.H, (0,))
        rho.collapse(0, 1)
        assert rho.probability_one(0) == pytest.approx(1.0)
        assert np.trace(rho.matrix).real == pytest.approx(1.0)

    def test_collapse_impossible_outcome_raises(self):
        rho = DensityMatrix(1)
        with pytest.raises(PlantError):
            rho.collapse(0, 1)

    def test_collapse_rejects_non_bit(self):
        rho = DensityMatrix(1)
        with pytest.raises(PlantError):
            rho.collapse(0, 2)

    def test_entangled_correlation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = DensityMatrix(2)
            rho.apply_gate(gates.H, (0,))
            rho.apply_gate(gates.CNOT, (0, 1))
            assert rho.measure(0, rng) == rho.measure(1, rng)

    def test_probability_one_of_mixed_state(self):
        # Uniform-random-Pauli convention: with p = 1, X/Y/Z each hit
        # with probability 1/3, so P(1) = 2/3 from |0>.
        rho = DensityMatrix(1)
        rho.apply_channel(depolarizing(1.0), (0,))
        assert rho.probability_one(0) == pytest.approx(2.0 / 3.0)


def reference_probability_one(matrix, qubit):
    """P(1) as ``probability_one`` computed it through ``np.diag``."""
    probabilities = np.clip(np.diag(matrix).real, 0.0, 1.0).reshape(
        1 << qubit, 2, -1)
    total = float(probabilities[:, 1, :].sum())
    return float(min(max(total, 0.0), 1.0))


class TestProbabilityOnePin:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), num_qubits=st.integers(1, 7),
           rank=st.integers(1, 4),
           edits=st.lists(st.sampled_from([-1e-12, -0.0, 0.0, 1e-300]),
                          max_size=3))
    def test_identical_float_on_random_states(self, seed, num_qubits,
                                              rank, edits):
        """Random low-rank mixed states, some diagonal entries forced
        to zero, signed zero or tiny negatives (the clip's domain):
        the result is the reference's float bit for bit."""
        rng = np.random.default_rng(seed)
        dim = 1 << num_qubits
        vectors = rng.normal(size=(dim, rank)) \
            + 1j * rng.normal(size=(dim, rank))
        matrix = vectors @ vectors.conj().T
        for value in edits:
            matrix[rng.integers(dim), rng.integers(dim)] = 0.0
            index = rng.integers(dim)
            matrix[index, index] = value
        assume(np.trace(matrix).real > 1e-3)
        matrix = matrix / np.trace(matrix).real
        rho = DensityMatrix(num_qubits, matrix)
        for qubit in range(num_qubits):
            assert struct.pack("<d", rho.probability_one(qubit)) == \
                struct.pack("<d", reference_probability_one(
                    rho.matrix, qubit))


class TestFidelity:
    def test_fidelity_with_pure_match(self):
        state = zero_state(2)
        state.apply_gate(gates.H, (0,))
        rho = density_matrix_of(state)
        assert state_fidelity(rho, state.amplitudes) == pytest.approx(1.0)

    def test_fidelity_with_orthogonal(self):
        rho = DensityMatrix(1)
        excited = zero_state(1)
        excited.apply_gate(gates.X, (0,))
        assert state_fidelity(rho, excited.amplitudes) == pytest.approx(0.0)

    def test_uhlmann_fidelity_pure_states(self):
        rho = DensityMatrix(1)
        sigma = DensityMatrix(1)
        sigma.apply_gate(gates.X90, (0,))
        assert uhlmann_fidelity(rho, sigma) == pytest.approx(0.5, abs=1e-8)

    def test_uhlmann_fidelity_self(self):
        rho = DensityMatrix(2)
        rho.apply_channel(depolarizing(0.3), (0,))
        assert uhlmann_fidelity(rho, rho.copy()) == pytest.approx(1.0, abs=1e-6)

    def test_mismatched_sizes(self):
        with pytest.raises(PlantError):
            state_fidelity(DensityMatrix(1), zero_state(2).amplitudes)
