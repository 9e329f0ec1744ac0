"""Test-side quantum oracles, independent of the dense kernel.

A pure-state (statevector) simulator with its own in-place one- and
two-qubit kernels: the dense density matrix, the fused gate-event
superoperators, the compiled benchmark circuits and the noiseless
machine are checked against it.  ``gates_equivalent`` compares
unitaries up to global phase; ``purity`` and ``uhlmann_fidelity``
measure density matrices.

Qubit index convention: qubit 0 is the most significant bit of the
computational basis index, i.e. for ``n`` qubits, basis state
``|q0 q1 ... q(n-1)>`` has index ``q0 * 2**(n-1) + ... + q(n-1)``.
The same convention is used by :mod:`repro.quantum.density_matrix`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.errors import PlantError
from repro.quantum.density_matrix import DensityMatrix


class Statevector:
    """An ``n``-qubit pure state with gate application and outcome
    probabilities."""

    def __init__(self, num_qubits: int,
                 amplitudes: np.ndarray | None = None):
        if num_qubits < 1:
            raise PlantError("need at least one qubit")
        self.num_qubits = num_qubits
        dim = 1 << num_qubits
        if amplitudes is None:
            self._amplitudes = np.zeros(dim, dtype=complex)
            self._amplitudes[0] = 1.0
        else:
            amplitudes = np.asarray(amplitudes, dtype=complex).ravel()
            if amplitudes.shape != (dim,):
                raise PlantError(
                    f"amplitude vector has shape {amplitudes.shape}, "
                    f"expected ({dim},)")
            norm = np.linalg.norm(amplitudes)
            if not math.isclose(norm, 1.0, abs_tol=1e-9):
                raise PlantError(f"state not normalised (norm {norm})")
            self._amplitudes = amplitudes.copy()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def amplitudes(self) -> np.ndarray:
        """A copy of the amplitude vector."""
        return self._amplitudes.copy()

    @property
    def amplitudes_view(self) -> np.ndarray:
        """A read-only view of the amplitude vector (no copy).

        The view is invalidated by the next gate application.
        """
        view = self._amplitudes.view()
        view.flags.writeable = False
        return view

    def probability(self, basis_state: int) -> float:
        """Probability of measuring the given computational basis state."""
        return float(abs(self._amplitudes[basis_state]) ** 2)

    def probabilities(self) -> np.ndarray:
        """Probabilities over all computational basis states."""
        return np.abs(self._amplitudes) ** 2

    def copy(self) -> "Statevector":
        """An independent copy of this state."""
        return Statevector(self.num_qubits, self._amplitudes)

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------
    def apply_gate(self, unitary: np.ndarray, qubits: tuple[int, ...] | list[int]) -> None:
        """Apply a k-qubit unitary to the listed qubits, in order.

        ``qubits[0]`` corresponds to the most significant bit of the
        unitary's own basis (matching :mod:`repro.quantum.gates`).
        """
        qubits = tuple(qubits)
        unitary = np.asarray(unitary, dtype=complex)
        k = len(qubits)
        if unitary.shape != (1 << k, 1 << k):
            raise PlantError(
                f"unitary shape {unitary.shape} does not match {k} qubit(s)")
        if len(set(qubits)) != k:
            raise PlantError(f"duplicate qubits in {qubits}")
        for qubit in qubits:
            if not 0 <= qubit < self.num_qubits:
                raise PlantError(f"qubit {qubit} out of range")
        self._amplitudes = _apply_unitary(self._amplitudes, unitary, qubits,
                                          self.num_qubits)

    def measure_probability_one(self, qubit: int) -> float:
        """P(qubit measured as 1) without collapsing the state.

        With qubit 0 as the most significant bit, qubit ``q`` is axis
        ``q`` of the state tensor reshaped to ``[2] * num_qubits``.
        """
        if not 0 <= qubit < self.num_qubits:
            raise PlantError(f"qubit {qubit} out of range")
        view = self._amplitudes.reshape(1 << qubit, 2, -1)
        return float(np.sum(np.abs(view[:, 1, :]) ** 2))

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def fidelity(self, other: "Statevector") -> float:
        """|<self|other>|^2 — pure state overlap."""
        if other.num_qubits != self.num_qubits:
            raise PlantError("qubit count mismatch")
        return float(abs(np.vdot(self._amplitudes, other._amplitudes)) ** 2)


#: Basis permutation swapping the two qubit bits of a 2-qubit unitary.
_SWAP_2Q = (0, 2, 1, 3)


def _apply_unitary_1q(amplitudes: np.ndarray, unitary: np.ndarray,
                      qubit: int) -> np.ndarray:
    """In-place single-qubit kernel: no transpose, two axpy-style rows.

    ``amplitudes`` must be C-contiguous (it always is for the state
    vectors this module manages); the reshape is then a view and the
    update happens in place.
    """
    view = amplitudes.reshape(1 << qubit, 2, -1)
    zero = view[:, 0, :]
    one = view[:, 1, :]
    new_zero = unitary[0, 0] * zero + unitary[0, 1] * one
    new_one = unitary[1, 0] * zero + unitary[1, 1] * one
    view[:, 0, :] = new_zero
    view[:, 1, :] = new_one
    return amplitudes


def _apply_unitary_2q(amplitudes: np.ndarray, unitary: np.ndarray,
                      qubits: tuple[int, ...]) -> np.ndarray:
    """In-place two-qubit kernel via a five-axis view of the tensor.

    ``qubits[0]`` is the most significant bit of the unitary's own
    basis; when the qubits are given high-to-low the unitary's basis is
    re-permuted instead of transposing the state.
    """
    low, high = ((qubits[0], qubits[1]) if qubits[0] < qubits[1]
                 else (qubits[1], qubits[0]))
    if qubits[0] != low:
        unitary = unitary[np.ix_(_SWAP_2Q, _SWAP_2Q)]
    view = amplitudes.reshape(1 << low, 2, 1 << (high - low - 1), 2, -1)
    slices = [view[:, a, :, b, :] for a in (0, 1) for b in (0, 1)]
    new = [unitary[row, 0] * slices[0] + unitary[row, 1] * slices[1] +
           unitary[row, 2] * slices[2] + unitary[row, 3] * slices[3]
           for row in range(4)]
    for index, (a, b) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        view[:, a, :, b, :] = new[index]
    return amplitudes


def _apply_unitary(amplitudes: np.ndarray, unitary: np.ndarray,
                   qubits: tuple[int, ...], num_qubits: int) -> np.ndarray:
    """Apply a unitary on selected qubits.

    One- and two-qubit gates (every gate the eQASM instantiations
    define) take the specialized in-place kernels; larger operators
    fall back to the generic transpose path.
    """
    k = len(qubits)
    if k <= 2 and not amplitudes.flags.c_contiguous:
        # The in-place kernels rely on reshape returning a view.
        amplitudes = np.ascontiguousarray(amplitudes)
    if k == 1:
        return _apply_unitary_1q(amplitudes, unitary, qubits[0])
    if k == 2:
        return _apply_unitary_2q(amplitudes, unitary, qubits)
    tensor = amplitudes.reshape([2] * num_qubits)
    # Move the target axes to the front, in the given order.
    axes = list(qubits)
    rest = [axis for axis in range(num_qubits) if axis not in axes]
    order = axes + rest
    tensor = np.transpose(tensor, order)
    tensor = tensor.reshape(1 << k, -1)
    tensor = unitary @ tensor
    tensor = tensor.reshape([2] * num_qubits)
    # Move axes back: the inverse permutation is constructed directly
    # instead of argsort-ing the forward one.
    inverse = [0] * num_qubits
    for position, axis in enumerate(order):
        inverse[axis] = position
    tensor = np.transpose(tensor, inverse)
    return tensor.reshape(-1)


def zero_state(num_qubits: int) -> Statevector:
    """|0...0> on ``num_qubits`` qubits."""
    return Statevector(num_qubits)


def basis_state(num_qubits: int, index: int) -> Statevector:
    """Computational basis state with the given integer index."""
    dim = 1 << num_qubits
    if not 0 <= index < dim:
        raise PlantError(f"basis index {index} out of range for {dim}")
    amplitudes = np.zeros(dim, dtype=complex)
    amplitudes[index] = 1.0
    return Statevector(num_qubits, amplitudes)


def density_matrix_of(state: Statevector) -> DensityMatrix:
    """|psi><psi| for a pure state."""
    amplitudes = state.amplitudes_view
    return DensityMatrix(state.num_qubits,
                         np.outer(amplitudes, amplitudes.conj()))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); 1 for pure states."""
    matrix = rho.matrix
    return float(np.trace(matrix @ matrix).real)


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity F(rho, sigma) = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Matrix square roots are taken by eigendecomposition with small
    negative eigenvalues (numerical noise on singular states) clipped
    to zero, which keeps pure/rank-deficient states exact.
    """
    if rho.num_qubits != sigma.num_qubits:
        raise PlantError("qubit count mismatch")

    def psd_sqrt(matrix: np.ndarray) -> np.ndarray:
        hermitian = (matrix + matrix.conj().T) / 2.0
        eigenvalues, eigenvectors = np.linalg.eigh(hermitian)
        eigenvalues = np.clip(eigenvalues, 0.0, None)
        return (eigenvectors * np.sqrt(eigenvalues)) @ eigenvectors.conj().T

    sqrt_rho = psd_sqrt(rho.matrix)
    inner = psd_sqrt(sqrt_rho @ sigma.matrix @ sqrt_rho)
    value = np.trace(inner).real
    return float(min(max(value ** 2, 0.0), 1.0))


def gates_equivalent(a: np.ndarray, b: np.ndarray, atol: float = 1e-9) -> bool:
    """Whether two unitaries are equal up to global phase."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    # Find the first non-negligible entry of b to extract the phase.
    flat_b = b.ravel()
    index = int(np.argmax(np.abs(flat_b)))
    if abs(flat_b[index]) < atol:
        return bool(np.allclose(a, b, atol=atol))
    phase = a.ravel()[index] / flat_b[index]
    if abs(abs(phase) - 1.0) > 1e-6:
        return False
    return bool(np.allclose(a, phase * b, atol=atol))
