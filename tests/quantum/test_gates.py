"""Tests for the gate library."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from quantum_oracle import gates_equivalent
from repro.quantum import gates


def allclose_is_unitary(matrix, atol=1e-10):
    """The ``np.allclose`` formulation :func:`gates.is_unitary` spells
    out, kept as the reference its verdict is pinned against."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    product = matrix.conj().T @ matrix
    return bool(np.allclose(product, np.eye(matrix.shape[0]), atol=atol))


#: Powers of ten around both tolerances (atol 1e-10 off the diagonal,
#: atol + 1e-5 on it).
EXPONENTS = st.integers(-16, -2)
UNIT_ENTRIES = st.complex_numbers(max_magnitude=1.0, allow_nan=False)


class TestUnitarity:
    @pytest.mark.parametrize("name", sorted(gates.STANDARD_GATES))
    def test_standard_gates_unitary(self, name):
        assert gates.is_unitary(gates.STANDARD_GATES[name])

    @pytest.mark.parametrize("theta", [0.0, 0.1, math.pi / 2, math.pi, 5.0])
    def test_rotations_unitary(self, theta):
        assert gates.is_unitary(gates.rx(theta))
        assert gates.is_unitary(gates.ry(theta))
        assert gates.is_unitary(gates.rz(theta))

    def test_is_unitary_rejects_non_square(self):
        assert not gates.is_unitary(np.ones((2, 3)))

    def test_is_unitary_rejects_non_unitary(self):
        assert not gates.is_unitary(np.array([[1, 0], [0, 2.0]]))

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(complex,
                      hnp.array_shapes(min_dims=1, max_dims=3,
                                       min_side=0, max_side=4),
                      elements=st.complex_numbers(allow_nan=True,
                                                  allow_infinity=True)))
    def test_verdict_matches_allclose_on_any_array(self, matrix):
        """NaN, infinities, non-square and empty inputs included."""
        with np.errstate(all="ignore"):
            assert gates.is_unitary(matrix) == allclose_is_unitary(matrix)

    @settings(max_examples=300, deadline=None)
    @given(theta=st.floats(-7.0, 7.0), phi=st.floats(-7.0, 7.0),
           two_qubit=st.booleans(), scale=EXPONENTS, stretch=EXPONENTS,
           noise=st.lists(UNIT_ENTRIES, min_size=16, max_size=16),
           atol=st.sampled_from([1e-10, 1e-8, 0.0]))
    def test_verdict_matches_allclose_near_the_tolerance(
            self, theta, phi, two_qubit, scale, stretch, noise, atol):
        """A rotation perturbed by ``10**scale`` off the unitary
        manifold and stretched by ``1 + 10**stretch``: both tests must
        agree on which side of the tolerance every case falls."""
        matrix = gates.rx(theta) @ gates.ry(phi)
        if two_qubit:
            matrix = np.kron(matrix, gates.ry(theta - phi))
        dim = matrix.shape[0]
        matrix = matrix * (1.0 + 10.0 ** stretch) + 10.0 ** scale * \
            np.array(noise[:dim * dim]).reshape(dim, dim)
        assert (gates.is_unitary(matrix, atol=atol)
                == allclose_is_unitary(matrix, atol=atol))


class TestGateAlgebra:
    def test_x90_squared_is_x(self):
        assert gates_equivalent(gates.X90 @ gates.X90, gates.X)

    def test_y90_squared_is_y(self):
        assert gates_equivalent(gates.Y90 @ gates.Y90, gates.Y)

    def test_x90_xm90_cancel(self):
        assert gates_equivalent(gates.X90 @ gates.XM90, gates.I)

    def test_y90_ym90_cancel(self):
        assert gates_equivalent(gates.Y90 @ gates.YM90, gates.I)

    def test_hadamard_squared_identity(self):
        assert gates_equivalent(gates.H @ gates.H, gates.I)

    def test_s_squared_is_z(self):
        assert gates_equivalent(gates.S @ gates.S, gates.Z)

    def test_t_squared_is_s(self):
        assert gates_equivalent(gates.T @ gates.T, gates.S)

    def test_pauli_products(self):
        assert gates_equivalent(gates.X @ gates.Y, gates.Z)
        assert gates_equivalent(gates.Y @ gates.Z, gates.X)
        assert gates_equivalent(gates.Z @ gates.X, gates.Y)

    def test_rx_pi_is_x(self):
        assert gates_equivalent(gates.rx(math.pi), gates.X)

    def test_ry_pi_is_y(self):
        assert gates_equivalent(gates.ry(math.pi), gates.Y)

    def test_rz_pi_is_z(self):
        assert gates_equivalent(gates.rz(math.pi), gates.Z)

    def test_rotation_composition(self):
        assert gates_equivalent(gates.rx(0.3) @ gates.rx(0.4),
                                      gates.rx(0.7))

    def test_cz_is_diagonal_symmetric(self):
        assert np.allclose(gates.CZ, gates.CZ.T)
        assert np.allclose(np.abs(np.diag(gates.CZ)), 1.0)

    def test_cnot_from_cz_and_hadamards(self):
        # CNOT = (I (x) H) CZ (I (x) H) with qubit 1 as the target.
        ih = np.kron(gates.I, gates.H)
        assert gates_equivalent(ih @ gates.CZ @ ih, gates.CNOT)

    def test_swap_from_three_cnots(self):
        cnot_01 = gates.CNOT
        # CNOT with control on qubit 1: conjugate by SWAP-free kron trick.
        cnot_10 = np.kron(gates.H, gates.H) @ gates.CNOT @ \
            np.kron(gates.H, gates.H)
        product = cnot_01 @ cnot_10 @ cnot_01
        assert gates_equivalent(product, gates.SWAP)


class TestHelpers:
    def test_gate_matrix_lookup_case_insensitive(self):
        assert np.allclose(gates.gate_matrix("x90"), gates.X90)

    def test_gate_matrix_unknown(self):
        with pytest.raises(KeyError):
            gates.gate_matrix("NOSUCH")

    def test_gate_matrix_returns_copy(self):
        matrix = gates.gate_matrix("X")
        matrix[0, 0] = 99
        assert gates.STANDARD_GATES["X"][0, 0] == 0

    # The oracle the identities above rely on must not be vacuous.
    def test_gates_equivalent_detects_phase(self):
        assert gates_equivalent(1j * gates.X, gates.X)
        assert not gates_equivalent(gates.X, gates.Z)

    def test_gates_equivalent_shape_mismatch(self):
        assert not gates_equivalent(gates.X, gates.CZ)

    def test_gates_equivalent_rejects_scaled(self):
        assert not gates_equivalent(2.0 * gates.X, gates.X)
