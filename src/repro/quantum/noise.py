"""Noise channels for the open-system plant.

The Section 5 experiments are bounded by three physical error sources,
all modelled here as Kraus channels (plus a classical readout error):

* **Decoherence during idle time** — amplitude damping with time
  constant T1 and pure dephasing with constant Tphi derived from T2
  (``1/Tphi = 1/T2 - 1/(2 T1)``).  This is what makes the error per
  Clifford grow with the gate interval in Fig. 12.
* **Intrinsic gate error** — a depolarizing channel applied with each
  gate, representing control imperfections (calibration residuals).
* **Readout assignment error** — a classical bit flip of the
  discriminated measurement result; this bounds active reset at 82.7 %.

Channels are represented as lists of Kraus operators ``K_i`` with
``sum_i K_i^dag K_i = I``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.errors import PlantError
from repro.quantum import gates


def amplitude_damping(gamma: float) -> list[np.ndarray]:
    """Amplitude damping (T1 relaxation) with decay probability gamma."""
    if not 0.0 <= gamma <= 1.0:
        raise PlantError(f"gamma {gamma} outside [0, 1]")
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return [k0, k1]


def phase_damping(lam: float) -> list[np.ndarray]:
    """Pure dephasing with phase-flip-equivalent probability ``lam``."""
    if not 0.0 <= lam <= 1.0:
        raise PlantError(f"lambda {lam} outside [0, 1]")
    k0 = math.sqrt(1 - lam) * np.eye(2, dtype=complex)
    k1 = math.sqrt(lam) * np.array([[1, 0], [0, -1]], dtype=complex)
    return [k0, k1]


def depolarizing(p: float, num_qubits: int = 1) -> list[np.ndarray]:
    """Depolarizing channel with error probability ``p``.

    With probability ``p`` one of the non-identity Paulis (uniformly)
    is applied; ``num_qubits`` may be 1 or 2.
    """
    if not 0.0 <= p <= 1.0:
        raise PlantError(f"p {p} outside [0, 1]")
    if num_qubits not in (1, 2):
        raise PlantError("depolarizing supports 1 or 2 qubits")
    paulis_1q = [gates.I, gates.X, gates.Y, gates.Z]
    if num_qubits == 1:
        operators = paulis_1q
    else:
        operators = [np.kron(a, b) for a in paulis_1q for b in paulis_1q]
    num_errors = len(operators) - 1
    kraus = [math.sqrt(1 - p) * operators[0]]
    kraus.extend(math.sqrt(p / num_errors) * op for op in operators[1:])
    return kraus


def bit_flip(p: float) -> list[np.ndarray]:
    """Classical-equivalent X error with probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise PlantError(f"p {p} outside [0, 1]")
    return [math.sqrt(1 - p) * gates.I, math.sqrt(p) * gates.X]


def is_trace_preserving(kraus: list[np.ndarray], atol: float = 1e-9) -> bool:
    """Check ``sum K^dag K == I`` for a Kraus set."""
    dim = kraus[0].shape[0]
    total = sum(k.conj().T @ k for k in kraus)
    return bool(np.allclose(total, np.eye(dim), atol=atol))


@dataclass(frozen=True)
class DecoherenceModel:
    """Per-qubit T1/T2 decoherence applied over idle durations.

    Parameters are in nanoseconds.  ``t2`` must satisfy ``t2 <= 2 * t1``
    (physicality).  ``idle_channel`` returns the Kraus set for idling a
    single qubit for ``duration_ns``.
    """

    t1_ns: float = 40_000.0
    t2_ns: float = 25_000.0

    #: Time constants at or above this are treated as "no decoherence"
    #: (:meth:`is_negligible`); :meth:`NoiseModel.noiseless` uses 1e15.
    NEGLIGIBLE_NS = 1e12

    def __post_init__(self) -> None:
        if self.t1_ns <= 0 or self.t2_ns <= 0:
            raise PlantError("T1 and T2 must be positive")
        if self.t2_ns > 2 * self.t1_ns + 1e-9:
            raise PlantError("T2 cannot exceed 2*T1")

    @property
    def is_negligible(self) -> bool:
        """Whether idling is effectively noise-free.

        True when both time constants are at least
        :data:`NEGLIGIBLE_NS` (a millisecond-scale shot then idles with
        error below 1e-9, under double-precision noise anyway).  The
        stabilizer plant backend — which cannot represent the non-Pauli
        T1/T2 channels — is only eligible when this holds.
        """
        return (self.t1_ns >= self.NEGLIGIBLE_NS and
                self.t2_ns >= self.NEGLIGIBLE_NS)

    @property
    def tphi_ns(self) -> float:
        """Pure-dephasing time constant: 1/Tphi = 1/T2 - 1/(2 T1)."""
        rate = 1.0 / self.t2_ns - 1.0 / (2.0 * self.t1_ns)
        if rate <= 0:
            return math.inf
        return 1.0 / rate

    def idle_channel(self, duration_ns: float) -> list[np.ndarray]:
        """Kraus operators for idling one qubit for ``duration_ns``.

        Amplitude damping with ``gamma = 1 - exp(-t/T1)`` composed with
        pure dephasing ``lam = (1 - exp(-t/Tphi)) / 2``.
        """
        if duration_ns < 0:
            raise PlantError("negative idle duration")
        if duration_ns == 0:
            return [np.eye(2, dtype=complex)]
        gamma = 1.0 - math.exp(-duration_ns / self.t1_ns)
        tphi = self.tphi_ns
        if math.isinf(tphi):
            lam = 0.0
        else:
            lam = (1.0 - math.exp(-duration_ns / tphi)) / 2.0
        damping = amplitude_damping(gamma)
        dephasing = phase_damping(lam)
        return compose_channels(damping, dephasing)

    def average_gate_infidelity(self, duration_ns: float) -> float:
        """Coherence-limited average infidelity of an idle of given length.

        Standard expression for a single qubit idling under T1/T2:
        ``1 - F_avg = (3 - exp(-t/T1) - 2 exp(-t/T2)) / 6``.
        Useful for calibrating Fig. 12 expectations analytically.
        """
        e1 = math.exp(-duration_ns / self.t1_ns)
        e2 = math.exp(-duration_ns / self.t2_ns)
        return (3.0 - e1 - 2.0 * e2) / 6.0


def compose_channels(first: list[np.ndarray],
                     second: list[np.ndarray]) -> list[np.ndarray]:
    """Kraus set of ``second`` applied after ``first``."""
    return [b @ a for a in first for b in second]


@dataclass(frozen=True)
class ReadoutErrorModel:
    """Classical assignment error of the measurement discrimination unit.

    ``p01`` is the probability of reading 1 when the qubit was 0, and
    ``p10`` of reading 0 when it was 1.  The paper's active-reset result
    (82.7 % in |0> after reset, "limited by the readout fidelity")
    corresponds to an assignment fidelity around 0.905.
    """

    p01: float = 0.095
    p10: float = 0.095

    def __post_init__(self) -> None:
        for name, value in (("p01", self.p01), ("p10", self.p10)):
            if not 0.0 <= value <= 1.0:
                raise PlantError(f"{name} {value} outside [0, 1]")

    @property
    def assignment_fidelity(self) -> float:
        """1 - (p01 + p10) / 2 — the usual single-number readout score."""
        return 1.0 - (self.p01 + self.p10) / 2.0

    def apply(self, true_result: int, rng: np.random.Generator) -> int:
        """Flip the discriminated bit with the assignment probability."""
        if true_result not in (0, 1):
            raise PlantError(f"result {true_result} is not a bit")
        flip_probability = self.p01 if true_result == 0 else self.p10
        if rng.random() < flip_probability:
            return 1 - true_result
        return true_result

    def apply_many(self, true_results: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
        """:meth:`apply` over a 0/1 ``uint8`` vector of discriminated
        bits: one uniform per element, in element order, flipping with
        the assignment probability of that element's bit."""
        flip_probability = np.where(true_results == 0, self.p01, self.p10)
        return true_results ^ (rng.random(len(true_results))
                               < flip_probability)

    def confusion_matrix(self) -> np.ndarray:
        """2x2 matrix M with M[i, j] = P(read i | prepared j)."""
        return np.array([[1 - self.p01, self.p10],
                         [self.p01, 1 - self.p10]])

    def correct_probabilities(self, measured: np.ndarray) -> np.ndarray:
        """Invert the confusion matrix on a measured [P0, P1] vector.

        This is the "corrected for readout errors" post-processing used
        for Fig. 11 and the Grover fidelity.
        """
        measured = np.asarray(measured, dtype=float)
        corrected = np.linalg.solve(self.confusion_matrix(), measured)
        return corrected


@dataclass(frozen=True)
class GateErrorModel:
    """Intrinsic (duration-independent) gate error probabilities.

    Depolarizing error applied alongside each gate:  the defaults give a
    single-qubit gate fidelity of 99.90 % at a 20 ns interval (paper's
    measured RB number) and a CZ-limited Grover fidelity near 85.6 %.
    """

    single_qubit_error: float = 1.5e-3
    two_qubit_error: float = 0.07

    def __post_init__(self) -> None:
        for name, value in (("single_qubit_error", self.single_qubit_error),
                            ("two_qubit_error", self.two_qubit_error)):
            if not 0.0 <= value <= 1.0:
                raise PlantError(f"{name} {value} outside [0, 1]")

    def channel_for(self, num_qubits: int) -> list[np.ndarray]:
        """Depolarizing Kraus set for a gate of the given arity."""
        if num_qubits == 1:
            return depolarizing(self.single_qubit_error, 1)
        if num_qubits == 2:
            return depolarizing(self.two_qubit_error, 2)
        raise PlantError("only 1- and 2-qubit gates are supported")

    @property
    def is_zero(self) -> bool:
        """Whether gates are error-free (both probabilities zero)."""
        return self.single_qubit_error == 0.0 and \
            self.two_qubit_error == 0.0


@dataclass(frozen=True)
class NoiseModel:
    """Bundle of all noise sources with the calibrated defaults.

    The defaults are chosen once (documented in DESIGN.md Section 7) so
    the paper's measured numbers fall out of the simulation without
    per-experiment tuning.
    """

    decoherence: DecoherenceModel = DecoherenceModel()
    readout: ReadoutErrorModel = ReadoutErrorModel()
    gate_error: GateErrorModel = GateErrorModel()

    @property
    def is_pauli_plus_readout(self) -> bool:
        """Whether every quantum channel of this model is Pauli.

        Depolarizing gate error is a Pauli mixture and the readout
        assignment error is purely classical, so the only obstruction
        is idle decoherence (amplitude damping is not Pauli).  Models
        satisfying this are eligible for the stabilizer plant backend
        (non-Clifford *gates* can still force the dense backend — see
        :meth:`repro.uarch.machine.QuMAv2.plant_backend_reasons`).
        """
        return self.decoherence.is_negligible

    @staticmethod
    def noiseless() -> "NoiseModel":
        """A noise model in which every channel is the identity."""
        return NoiseModel(
            decoherence=DecoherenceModel(t1_ns=1e15, t2_ns=1e15),
            readout=ReadoutErrorModel(p01=0.0, p10=0.0),
            gate_error=GateErrorModel(single_qubit_error=0.0,
                                      two_qubit_error=0.0),
        )
