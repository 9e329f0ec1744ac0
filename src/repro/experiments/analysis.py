"""Analysis routines: RB decay fits and readout correction.

Implements the data reduction of Section 5:

* RB: "the Clifford fidelity F_Cl can be extracted from the exponential
  decay" of the survival probability ``p(k) = A f^k + B``; the average
  error rate per gate is ``eps = 1 - F_Cl^(1/1.875)`` (each Clifford is
  1.875 primitive pulses on average);
* readout correction: inverting the assignment-error confusion matrix
  on measured populations ("corrected for readout errors", Fig. 11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from repro.quantum.noise import ReadoutErrorModel


def _decay_model(k, amplitude, decay, offset):
    return amplitude * decay ** k + offset


@dataclass(frozen=True)
class RBFit:
    """Fitted RB decay parameters and derived error rates."""

    amplitude: float
    decay: float            # f: depolarizing parameter per Clifford
    offset: float
    primitives_per_clifford: float = 1.875

    @property
    def clifford_fidelity(self) -> float:
        """F_Cl = 1 - (1 - f)(d - 1)/d with d = 2."""
        return 1.0 - (1.0 - self.decay) / 2.0

    @property
    def error_per_clifford(self) -> float:
        """1 - F_Cl."""
        return 1.0 - self.clifford_fidelity

    @property
    def error_per_gate(self) -> float:
        """eps = 1 - F_Cl^(1/1.875) (Section 5)."""
        return 1.0 - self.clifford_fidelity ** (
            1.0 / self.primitives_per_clifford)

    def survival(self, k: float) -> float:
        """Model survival probability at sequence length k."""
        return _decay_model(k, self.amplitude, self.decay, self.offset)


def fit_rb_decay(lengths: list[int], survivals: list[float],
                 primitives_per_clifford: float = 1.875) -> RBFit:
    """Least-squares fit of ``p(k) = A f^k + B``.

    ``lengths`` are Clifford counts k, ``survivals`` the measured
    P(|0>) values.  Sensible bounds keep the fit physical (0 < f < 1).
    The fit is a bounded trust-region least squares; it estimates no
    parameter covariance, which exact model data would leave undefined.
    """
    if len(lengths) != len(survivals):
        raise ValueError("lengths and survivals differ in size")
    if len(lengths) < 3:
        raise ValueError("need at least three points to fit the decay")
    k = np.asarray(lengths, dtype=float)
    p = np.asarray(survivals, dtype=float)
    # Initial guess: full contrast decaying to 0.5.
    guess = (0.5, 0.99, 0.5)

    def residuals(params):
        return _decay_model(k, *params) - p

    fit = least_squares(residuals, guess, method="trf",
                        bounds=([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
                        max_nfev=20000)
    amplitude, decay, offset = fit.x
    return RBFit(amplitude=float(amplitude), decay=float(decay),
                 offset=float(offset),
                 primitives_per_clifford=primitives_per_clifford)


def correct_population_for_readout(
        excited_fraction: float,
        readout: ReadoutErrorModel) -> float:
    """Invert the confusion matrix on a single-qubit P(1) estimate.

    The corrected value is clipped to [0, 1] (statistical fluctuations
    can push the linear inversion slightly outside).
    """
    measured = np.array([1.0 - excited_fraction, excited_fraction])
    corrected = readout.correct_probabilities(measured)
    return float(min(max(corrected[1], 0.0), 1.0))


def staircase_rms_error(measured: list[float],
                        ideal: list[float]) -> float:
    """RMS deviation of an AllXY staircase from the ideal pattern."""
    if len(measured) != len(ideal):
        raise ValueError("length mismatch")
    diffs = [(m - i) ** 2 for m, i in zip(measured, ideal)]
    return math.sqrt(sum(diffs) / len(diffs))


def logspaced_lengths(maximum: int, count: int,
                      minimum: int = 1) -> list[int]:
    """Distinct, roughly log-spaced RB sequence lengths."""
    if count < 2:
        raise ValueError("need at least two lengths")
    raw = np.unique(np.round(np.logspace(
        math.log10(max(minimum, 1)), math.log10(maximum),
        count)).astype(int))
    return [int(k) for k in raw if k >= minimum]
