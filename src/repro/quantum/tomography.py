"""Two-qubit quantum state tomography with maximum-likelihood estimation.

Section 5 reports the two-qubit Grover's search fidelity (85.6 %) "using
quantum tomography with maximum likelihood estimation".  This module
implements the standard procedure:

1. Estimate the 15 non-trivial two-qubit Pauli expectation values
   <P_a ⊗ P_b> from measurement counts taken after basis-rotation
   pre-pulses (measuring X requires a Y-90 pre-rotation, Y an Xm90).
2. Linear-inversion reconstruction
   ``rho_lin = (1/4) * sum_ab <P_a P_b> P_a ⊗ P_b``.
3. Project onto the physical set (positive semidefinite, trace one) by
   the Smolin–Gambetta–Smith eigenvalue-truncation algorithm, which is
   the maximum-likelihood estimate under Gaussian noise.

Readout-error correction is applied at the expectation-value level
(invert the per-qubit confusion matrix) — this is the paper's
"algorithmic fidelity, i.e., correcting for readout infidelity".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import PlantError
from repro.quantum import gates
from repro.quantum.density_matrix import DensityMatrix

#: Pre-rotation applied before a z-basis readout to measure each Pauli.
#: Measuring X: rotate by -pi/2 about y (maps x-axis onto z-axis).
#: Measuring Y: rotate by +pi/2 about x.
BASIS_PREROTATION = {
    "X": gates.YM90,
    "Y": gates.X90,
    "Z": gates.I,
}

@dataclass(frozen=True)
class TomographySetting:
    """One measurement configuration: a readout basis per qubit."""

    bases: tuple[str, str]

    def prerotations(self) -> tuple[np.ndarray, np.ndarray]:
        """Unitaries to apply before z-readout, one per qubit."""
        return tuple(BASIS_PREROTATION[b] for b in self.bases)


def measurement_settings() -> list[TomographySetting]:
    """The nine two-qubit basis settings {X,Y,Z} x {X,Y,Z}."""
    return [TomographySetting(bases=(a, b))
            for a in ("X", "Y", "Z") for b in ("X", "Y", "Z")]


def expectation_from_counts(counts: dict[int, int]) -> dict[str, float]:
    """Single-setting expectation values from two-bit outcome counts.

    ``counts`` maps outcome (two-bit integer, qubit 0 = MSB) to shots.
    Returns ``{"ZI": <Z x I>, "IZ": <I x Z>, "ZZ": <Z x Z>}`` in the
    *rotated* frame: combined with the setting's bases these become the
    Pauli expectation values.
    """
    total = sum(counts.values())
    if total == 0:
        raise PlantError("no shots in counts")
    zi = iz = zz = 0.0
    for outcome, n in counts.items():
        bit0 = (outcome >> 1) & 1
        bit1 = outcome & 1
        sign0 = 1.0 - 2.0 * bit0
        sign1 = 1.0 - 2.0 * bit1
        zi += sign0 * n
        iz += sign1 * n
        zz += sign0 * sign1 * n
    return {"ZI": zi / total, "IZ": iz / total, "ZZ": zz / total}


def correct_expectations_for_readout(
        expectations: dict[str, float],
        fidelity_q0: float, fidelity_q1: float) -> dict[str, float]:
    """Undo symmetric readout assignment error on expectation values.

    A symmetric assignment error with fidelity ``F`` scales a
    single-qubit expectation by ``2F - 1``; a two-qubit correlator by
    the product of both scale factors.
    """
    scale0 = 2.0 * fidelity_q0 - 1.0
    scale1 = 2.0 * fidelity_q1 - 1.0
    if scale0 <= 0 or scale1 <= 0:
        raise PlantError("readout fidelity must exceed 0.5 to correct")
    return {
        "ZI": expectations["ZI"] / scale0,
        "IZ": expectations["IZ"] / scale1,
        "ZZ": expectations["ZZ"] / (scale0 * scale1),
    }


def assemble_pauli_vector(
        setting_expectations: dict[tuple[str, str], dict[str, float]],
) -> dict[tuple[str, str], float]:
    """Combine per-setting rotated-frame expectations into Pauli terms.

    ``setting_expectations`` maps a setting's bases (e.g. ``("X", "Z")``)
    to its ``{"ZI", "IZ", "ZZ"}`` dictionary.  Each Pauli term
    ``(a, b)`` with a, b in {I, X, Y, Z} is averaged over every setting
    that measures it (a term with an I acts on several settings).
    """
    sums: dict[tuple[str, str], float] = {}
    counts: dict[tuple[str, str], int] = {}

    def accumulate(term: tuple[str, str], value: float) -> None:
        sums[term] = sums.get(term, 0.0) + value
        counts[term] = counts.get(term, 0) + 1

    for (basis0, basis1), values in setting_expectations.items():
        accumulate((basis0, "I"), values["ZI"])
        accumulate(("I", basis1), values["IZ"])
        accumulate((basis0, basis1), values["ZZ"])
    return {term: sums[term] / counts[term] for term in sums}


def linear_inversion(pauli_terms: dict[tuple[str, str], float]) -> np.ndarray:
    """Reconstruct rho from Pauli expectation values (may be unphysical)."""
    rho = np.eye(4, dtype=complex) / 4.0
    for (label0, label1), value in pauli_terms.items():
        if (label0, label1) == ("I", "I"):
            continue
        operator = np.kron(gates.PAULIS[label0], gates.PAULIS[label1])
        rho = rho + value * operator / 4.0
    return rho


def project_to_physical(rho: np.ndarray) -> np.ndarray:
    """Nearest physical density matrix (Smolin et al., PRL 108, 070502).

    Eigenvalues are sorted descending; negative mass is redistributed by
    truncation so the result is PSD with unit trace — the closed-form
    maximum-likelihood state for Gaussian measurement noise.
    """
    rho = (rho + rho.conj().T) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(rho)
    # eigh returns ascending order; walk from the smallest.
    values = list(eigenvalues)
    dim = len(values)
    accumulator = 0.0
    adjusted = [0.0] * dim
    remaining = dim
    for i in range(dim):
        candidate = values[i] + accumulator / remaining
        if candidate < 0:
            accumulator += values[i]
            adjusted[i] = 0.0
            remaining -= 1
        else:
            for j in range(i, dim):
                adjusted[j] = values[j] + accumulator / remaining
            break
    rho_physical = np.zeros_like(rho)
    for value, vector in zip(adjusted, eigenvectors.T):
        if value > 0:
            rho_physical += value * np.outer(vector, vector.conj())
    trace = np.trace(rho_physical).real
    if trace <= 0:
        raise PlantError("projection produced a zero state")
    return rho_physical / trace


def mle_tomography(
        setting_expectations: dict[tuple[str, str], dict[str, float]],
) -> DensityMatrix:
    """Full pipeline: per-setting expectations -> physical rho."""
    pauli_terms = assemble_pauli_vector(setting_expectations)
    rho = linear_inversion(pauli_terms)
    rho = project_to_physical(rho)
    return DensityMatrix(2, rho)


def state_fidelity(rho: DensityMatrix, psi: np.ndarray) -> float:
    """<psi| rho |psi> against the ideal algorithm output's amplitudes."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (1 << rho.num_qubits,):
        raise PlantError("qubit count mismatch")
    return float((psi.conj() @ rho.matrix @ psi).real)
