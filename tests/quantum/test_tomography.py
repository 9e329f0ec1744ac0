"""Tests for two-qubit tomography with MLE projection."""

import numpy as np
import pytest

from quantum_oracle import zero_state
from repro.core.errors import PlantError
from repro.quantum import DensityMatrix, gates
from repro.quantum.tomography import (
    assemble_pauli_vector,
    correct_expectations_for_readout,
    expectation_from_counts,
    linear_inversion,
    measurement_settings,
    mle_tomography,
    project_to_physical,
    state_fidelity,
)


def bell_state():
    state = zero_state(2)
    state.apply_gate(gates.H, (0,))
    state.apply_gate(gates.CNOT, (0, 1))
    return state


def ideal_pauli_terms(state):
    """Exact Pauli expectation values <psi| P_a (x) P_b |psi>."""
    psi = state.amplitudes
    return {(a, b): float(np.vdot(psi, np.kron(gates.PAULIS[a],
                                                gates.PAULIS[b]) @ psi).real)
            for a in "IXYZ" for b in "IXYZ"}


def exact_setting_expectations(state):
    """Build per-setting expectations directly from the ideal state."""
    terms = ideal_pauli_terms(state)
    settings = {}
    for setting in measurement_settings():
        basis0, basis1 = setting.bases
        settings[(basis0, basis1)] = {
            "ZI": terms[(basis0, "I")],
            "IZ": terms[("I", basis1)],
            "ZZ": terms[(basis0, basis1)],
        }
    return settings


class TestExpectationFromCounts:
    def test_all_zeros(self):
        values = expectation_from_counts({0: 100})
        assert values == {"ZI": 1.0, "IZ": 1.0, "ZZ": 1.0}

    def test_all_ones(self):
        values = expectation_from_counts({3: 50})
        assert values == {"ZI": -1.0, "IZ": -1.0, "ZZ": 1.0}

    def test_mixed(self):
        values = expectation_from_counts({0: 50, 3: 50})
        assert values["ZI"] == pytest.approx(0.0)
        assert values["ZZ"] == pytest.approx(1.0)

    def test_anticorrelated(self):
        values = expectation_from_counts({1: 50, 2: 50})
        assert values["ZZ"] == pytest.approx(-1.0)

    def test_empty_counts_raise(self):
        with pytest.raises(PlantError):
            expectation_from_counts({})


class TestReadoutCorrection:
    def test_perfect_readout_is_identity(self):
        values = {"ZI": 0.5, "IZ": -0.25, "ZZ": 0.75}
        corrected = correct_expectations_for_readout(values, 1.0, 1.0)
        assert corrected == values

    def test_correction_rescales(self):
        # Fidelity 0.9 scales single-qubit expectations by 0.8.
        values = {"ZI": 0.4, "IZ": 0.8, "ZZ": 0.64}
        corrected = correct_expectations_for_readout(values, 0.9, 0.9)
        assert corrected["ZI"] == pytest.approx(0.5)
        assert corrected["IZ"] == pytest.approx(1.0)
        assert corrected["ZZ"] == pytest.approx(1.0)

    def test_rejects_useless_readout(self):
        with pytest.raises(PlantError):
            correct_expectations_for_readout({"ZI": 0, "IZ": 0, "ZZ": 0},
                                             0.5, 0.9)


class TestReconstruction:
    def test_bell_state_exact(self):
        state = bell_state()
        rho = mle_tomography(exact_setting_expectations(state))
        assert state_fidelity(rho, state.amplitudes) == pytest.approx(1.0, abs=1e-9)

    def test_product_state_exact(self):
        state = zero_state(2)
        state.apply_gate(gates.X90, (0,))
        state.apply_gate(gates.Y90, (1,))
        rho = mle_tomography(exact_setting_expectations(state))
        assert state_fidelity(rho, state.amplitudes) == pytest.approx(1.0, abs=1e-9)

    def test_grover_target_state(self):
        # The |11>-oracle Grover output.
        state = zero_state(2)
        state.apply_gate(gates.X, (0,))
        state.apply_gate(gates.X, (1,))
        rho = mle_tomography(exact_setting_expectations(state))
        assert state_fidelity(rho, state.amplitudes) == pytest.approx(1.0, abs=1e-9)

    def test_noisy_expectations_still_physical(self):
        state = bell_state()
        rng = np.random.default_rng(3)
        settings = exact_setting_expectations(state)
        noisy = {key: {k: v + rng.normal(0, 0.05) for k, v in val.items()}
                 for key, val in settings.items()}
        rho = mle_tomography(noisy)
        eigenvalues = np.linalg.eigvalsh(rho.matrix)
        assert eigenvalues.min() >= -1e-10
        assert np.trace(rho.matrix).real == pytest.approx(1.0)
        assert state_fidelity(rho, state.amplitudes) > 0.9


class TestProjection:
    def test_projection_fixes_negative_eigenvalue(self):
        unphysical = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        physical = project_to_physical(unphysical)
        eigenvalues = np.linalg.eigvalsh(physical)
        assert eigenvalues.min() >= -1e-12
        assert np.trace(physical).real == pytest.approx(1.0)

    def test_projection_preserves_physical_state(self):
        rho = DensityMatrix(2)
        rho.apply_gate(gates.H, (0,))
        projected = project_to_physical(rho.matrix)
        assert np.allclose(projected, rho.matrix, atol=1e-10)


class TestHelpers:
    def test_nine_settings(self):
        assert len(measurement_settings()) == 9

    def test_prerotations_shapes(self):
        for setting in measurement_settings():
            for unitary in setting.prerotations():
                assert unitary.shape == (2, 2)

    def test_ideal_pauli_terms_identity(self):
        terms = ideal_pauli_terms(zero_state(2))
        assert terms[("I", "I")] == pytest.approx(1.0)
        assert terms[("Z", "I")] == pytest.approx(1.0)
        assert terms[("X", "I")] == pytest.approx(0.0)

    def test_linear_inversion_of_ground_state(self):
        terms = ideal_pauli_terms(zero_state(2))
        rho = linear_inversion(terms)
        assert rho[0, 0] == pytest.approx(1.0)

    def test_assemble_pauli_vector_averages(self):
        state = bell_state()
        settings = exact_setting_expectations(state)
        terms = assemble_pauli_vector(settings)
        # Bell state: <XX> = 1, <ZZ> = 1, <YY> = -1, <XZ> = 0.
        assert terms[("X", "X")] == pytest.approx(1.0)
        assert terms[("Z", "Z")] == pytest.approx(1.0)
        assert terms[("Y", "Y")] == pytest.approx(-1.0)
        assert terms[("X", "Z")] == pytest.approx(0.0)
