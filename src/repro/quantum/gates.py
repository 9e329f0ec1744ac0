"""Gate unitaries for the quantum plant and the compiler.

The target processor (Section 4.1) natively supports single-qubit x/y
rotations, a two-qubit controlled-phase (CZ) gate, and z-basis
measurement.  The compile-time operation configuration can additionally
bind any unitary here to an eQASM opcode (Section 3.2), so this module
also provides the common derived gates (H, Z, S, T, CNOT, SWAP) and
parameterised rotations used by calibration workloads (Rabi sweeps).

Names follow the paper: ``X90``/``Y90`` rotate by +pi/2 about x/y,
``Xm90``/``Ym90`` by -pi/2 (Section 3.4.3).
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)

I = np.eye(2, dtype=complex)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

H = np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2
S = np.array([[1, 0], [0, 1j]], dtype=complex)
SDG = S.conj().T
T = np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)
TDG = T.conj().T

PAULIS = {"I": I, "X": X, "Y": Y, "Z": Z}


def rx(theta: float) -> np.ndarray:
    """Rotation about the x axis by ``theta`` radians."""
    half = theta / 2.0
    return np.array([[math.cos(half), -1j * math.sin(half)],
                     [-1j * math.sin(half), math.cos(half)]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    """Rotation about the y axis by ``theta`` radians."""
    half = theta / 2.0
    return np.array([[math.cos(half), -math.sin(half)],
                     [math.sin(half), math.cos(half)]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    """Rotation about the z axis by ``theta`` radians."""
    half = theta / 2.0
    return np.array([[np.exp(-1j * half), 0],
                     [0, np.exp(1j * half)]], dtype=complex)


X90 = rx(math.pi / 2)
XM90 = rx(-math.pi / 2)
Y90 = ry(math.pi / 2)
YM90 = ry(-math.pi / 2)

CZ = np.diag([1, 1, 1, -1]).astype(complex)

# Two-qubit gates below use the convention that the *first* qubit index
# is the most significant bit of the 2-qubit computational basis, i.e.
# basis order |q0 q1> = |00>, |01>, |10>, |11> with q0 the control.
CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)

SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)

STANDARD_GATES: dict[str, np.ndarray] = {
    "I": I,
    "X": X,
    "Y": Y,
    "Z": Z,
    "H": H,
    "S": S,
    "SDG": SDG,
    "T": T,
    "TDG": TDG,
    "X90": X90,
    "XM90": XM90,
    "Y90": Y90,
    "YM90": YM90,
    "CZ": CZ,
    "CNOT": CNOT,
    "SWAP": SWAP,
}


def gate_matrix(name: str) -> np.ndarray:
    """Return a copy of the unitary for a standard gate name."""
    key = name.upper()
    if key not in STANDARD_GATES:
        known = ", ".join(sorted(STANDARD_GATES))
        raise KeyError(f"unknown gate {name!r}; known gates: {known}")
    return STANDARD_GATES[key].copy()


def is_unitary(matrix: np.ndarray, atol: float = 1e-10) -> bool:
    """Whether ``matrix`` is unitary within tolerance.

    ``np.allclose(U^dag U, I, atol=atol)`` written out: every entry
    within ``atol + 1e-5 * |I|``, and NaN or infinite entries never
    are (``np.allclose``'s wrapper costs three times the test).
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    identity = np.eye(matrix.shape[0])
    deviation = np.abs(matrix.conj().T @ matrix - identity)
    return bool((deviation <= atol + 1e-5 * identity).all())
