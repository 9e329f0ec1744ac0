"""Exact density-matrix simulator for small open systems.

The Section 5 experiments run on one or two qubits; an exact density
matrix (4x4 at most in practice, but the implementation is generic) with
Kraus-channel noise is both faster and statistically cleaner than
Monte-Carlo trajectories.  Every evolution (a unitary, a Kraus channel
or a whole fused gate event) is one Liouville superoperator applied by
one kernel, :meth:`DensityMatrix.apply_superop`.  Measurement is still
sampled per shot so the control flow of the microarchitecture (fast
conditional execution, CFC) sees genuine random outcomes.

Qubit index convention: qubit 0 is the most significant bit of the
computational basis index, i.e. for ``n`` qubits, basis state
``|q0 q1 ... q(n-1)>`` has index ``q0 * 2**(n-1) + ... + q(n-1)``, and
a k-qubit unitary's own basis puts its first target qubit first.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.core.errors import PlantError


#: Most multiply-adds one matrix product in
#: :meth:`DensityMatrix.apply_superop` may take.  OpenBLAS hands a
#: product of 2^16 or more to its thread pool, and on a loaded host
#: waking the pool costs milliseconds (a 4x4 superoperator on the
#: seven-qubit chip took 5 ms instead of 40 us); the columns are split
#: into stacked products below that size instead.
_PRODUCT_MULTIPLY_ADDS = 1 << 15


def superoperator(kraus: list[np.ndarray]) -> np.ndarray:
    """Liouville matrix ``sum_i kron(K_i, conj(K_i))`` of a Kraus set.

    It acts on the row-major vectorisation of rho, where
    ``vec(K rho K^dag) = kron(K, conj(K)) vec(rho)``; composing
    channels is multiplying their superoperators (Wood, Biamonte and
    Cory, arXiv:1111.6950).  The sum is one contraction over the
    stacked Kraus set: entry ``(i*d + a, j*d + b)`` is
    ``sum_k K_k[i, j] conj(K_k[a, b])``.
    """
    stacked = np.asarray(kraus, dtype=complex)
    dim = stacked.shape[-1]
    return np.einsum("kij,kab->iajb", stacked,
                     stacked.conj()).reshape(dim * dim, dim * dim)


def _operator(operator: np.ndarray, num_qubits: int) -> np.ndarray:
    """``operator`` as a complex array, checked to act on
    ``num_qubits`` qubits."""
    operator = np.asarray(operator, dtype=complex)
    dim = 1 << num_qubits
    if operator.shape != (dim, dim):
        raise PlantError(
            f"operator shape {operator.shape} does not match "
            f"{num_qubits} qubits")
    return operator


@functools.lru_cache(maxsize=1024)
def _block_layout(num_qubits: int, qubits: tuple[int, ...]
                  ) -> tuple[tuple[int, ...], tuple[int, ...],
                             tuple[int, ...]]:
    """How :meth:`DensityMatrix.apply_superop` reaches a qubit block.

    Returns ``(shape, forward, inverse)``: rho reshaped to ``shape``
    has one axis of length 2 per target in its row half and again in
    its column half (the other qubits merged into the axes between
    them), ``forward`` moves those target axes to the front in
    ``(rows..., columns...)`` order, each half in ``qubits`` order,
    and ``inverse`` undoes it.  Invalid targets raise (a raise is not
    cached, so validation costs one call per chip and target tuple).
    """
    if len(set(qubits)) != len(qubits):
        raise PlantError(f"duplicate qubits in {qubits}")
    for qubit in qubits:
        if not 0 <= qubit < num_qubits:
            raise PlantError(f"qubit {qubit} out of range")
    half: list[int] = []
    axis_of: dict[int, int] = {}
    previous = -1
    for qubit in sorted(qubits):
        half.append(1 << (qubit - previous - 1))
        axis_of[qubit] = len(half)
        half.append(2)
        previous = qubit
    half.append(1 << (num_qubits - 1 - previous))
    front = ([axis_of[qubit] for qubit in qubits] +
             [len(half) + axis_of[qubit] for qubit in qubits])
    forward = tuple(front + [axis for axis in range(2 * len(half))
                             if axis not in front])
    inverse = tuple(int(axis) for axis in np.argsort(forward))
    return tuple(half) * 2, forward, inverse


class DensityMatrix:
    """An ``n``-qubit mixed state evolving under unitaries and channels."""

    def __init__(self, num_qubits: int, matrix: np.ndarray | None = None):
        if num_qubits < 1:
            raise PlantError("need at least one qubit")
        self.num_qubits = num_qubits
        dim = 1 << num_qubits
        if matrix is None:
            self._matrix = np.zeros((dim, dim), dtype=complex)
            self._matrix[0, 0] = 1.0
        else:
            matrix = np.asarray(matrix, dtype=complex)
            if matrix.shape != (dim, dim):
                raise PlantError(
                    f"matrix shape {matrix.shape}, expected ({dim}, {dim})")
            trace = np.trace(matrix).real
            if not math.isclose(trace, 1.0, abs_tol=1e-8):
                raise PlantError(f"trace is {trace}, expected 1")
            self._matrix = matrix.copy()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """A copy of the density matrix."""
        return self._matrix.copy()

    def probabilities(self) -> np.ndarray:
        """Diagonal of rho — computational basis probabilities."""
        return np.clip(self._matrix.diagonal().real, 0.0, 1.0)

    def copy(self) -> "DensityMatrix":
        """An independent copy of this state."""
        return DensityMatrix(self.num_qubits, self._matrix)

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------
    def apply_gate(self, unitary: np.ndarray,
                   qubits: tuple[int, ...] | list[int]) -> None:
        """Apply a k-qubit unitary: rho -> U rho U^dag."""
        unitary = _operator(unitary, len(tuple(qubits)))
        self.apply_superop(np.kron(unitary, unitary.conj()), qubits)

    def apply_channel(self, kraus: list[np.ndarray],
                      qubits: tuple[int, ...] | list[int]) -> None:
        """Apply a Kraus channel: rho -> sum_i K_i rho K_i^dag.

        The Kraus set is summed into its Liouville matrix
        (:func:`superoperator`) and applied in one
        :meth:`apply_superop` pass.
        """
        k = len(tuple(qubits))
        self.apply_superop(
            superoperator([_operator(operator, k) for operator in kraus]),
            qubits)

    def apply_superop(self, superop: np.ndarray,
                      qubits: tuple[int, ...] | list[int]) -> None:
        """Apply a k-qubit Liouville superoperator to rho.

        ``superop`` is the ``(4^k, 4^k)`` matrix acting on the
        row-major vectorised k-qubit block, i.e. on the index
        ``(rows..., columns...)`` with ``qubits[0]`` the most
        significant bit of each half — the convention in which a Kraus
        operator ``K`` contributes ``kron(K, conj(K))``.  Flattened,
        rho is a 2n-qubit tensor; the target (row, column) axis pairs
        are moved to the front, contracted with ``superop`` in matrix
        products and moved back, without ever building a full-space
        operator.
        """
        qubits = tuple(qubits)
        shape, forward, inverse = _block_layout(self.num_qubits, qubits)
        size = 1 << (2 * len(qubits))
        if superop.shape != (size, size):
            raise PlantError(
                f"superoperator shape {superop.shape} does not match "
                f"{len(qubits)} qubits")
        tensor = self._matrix.reshape(shape).transpose(forward)
        columns = tensor.reshape(size, -1)
        chunk = min(columns.shape[1],
                    max(1, _PRODUCT_MULTIPLY_ADDS // (size * size)))
        block = np.matmul(superop, columns.reshape(
            size, -1, chunk).transpose(1, 0, 2)).transpose(1, 0, 2)
        self._matrix = block.reshape(tensor.shape).transpose(
            inverse).reshape(self._matrix.shape)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def probability_one(self, qubit: int) -> float:
        """P(qubit reads 1) under an ideal projective measurement."""
        if not 0 <= qubit < self.num_qubits:
            raise PlantError(f"qubit {qubit} out of range")
        probabilities = self.probabilities().reshape(1 << qubit, 2, -1)
        total = float(probabilities[:, 1, :].sum())
        return float(min(max(total, 0.0), 1.0))

    def measure(self, qubit: int, rng: np.random.Generator,
                p_one: float | None = None) -> int:
        """Sample a projective z-measurement and collapse the state
        (``p_one``: :meth:`probability_one`, if already computed)."""
        if p_one is None:
            p_one = self.probability_one(qubit)
        result = 1 if rng.random() < p_one else 0
        self.collapse(qubit, result)
        return result

    def collapse(self, qubit: int, result: int) -> None:
        """Project qubit onto ``result`` and renormalise."""
        if result not in (0, 1):
            raise PlantError(f"result {result} is not a bit")
        if not 0 <= qubit < self.num_qubits:
            raise PlantError(f"qubit {qubit} out of range")
        if not self._matrix.flags.c_contiguous:
            self._matrix = np.ascontiguousarray(self._matrix)
        rest = 1 << (self.num_qubits - 1 - qubit)
        view = self._matrix.reshape(1 << qubit, 2, rest,
                                    1 << qubit, 2, rest)
        view[:, 1 - result, :, :, :, :] = 0.0
        view[:, :, :, :, 1 - result, :] = 0.0
        trace = np.trace(self._matrix).real
        if trace < 1e-12:
            raise PlantError(
                f"collapse of qubit {qubit} to {result} has probability 0")
        self._matrix = self._matrix / trace
