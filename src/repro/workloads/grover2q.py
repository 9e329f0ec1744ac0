"""Two-qubit Grover's search (Section 5, following DiCarlo et al. [55]).

The proof-of-concept algorithm run on the two-qubit processor: for a
marked state |ab>, one Grover iteration suffices on two qubits and the
ideal output is exactly the marked basis state.

Textbook structure (two CZ gates — the paper finds the algorithmic
fidelity "limited by the CZ gate"):

1. ``H (x) H`` — equal superposition;
2. oracle ``(Z^(1-a) (x) Z^(1-b)) . CZ`` — phase-flips only |ab>;
3. ``H (x) H``;
4. reflection about |00>: ``(Z (x) Z) . CZ`` (equal, up to global
   phase, to ``2|00><00| - I``);
5. ``H (x) H`` — the state is now exactly |ab>.

With ``native=True`` the H and Z gates are decomposed into the
operation set configured for the Section 5 experiments
({I, X, Y, X90, Y90, Xm90, Ym90} + CZ): ``H = X . Y90`` and
``Z = X . Y`` (both exact up to global phase), verified in the tests.
"""

from __future__ import annotations

import numpy as np

from repro.compiler.ir import Circuit
from repro.quantum import gates


def _emit_h(circuit: Circuit, qubit: int, native: bool) -> None:
    """Hadamard, optionally as the native pulse pair Y90 then X."""
    if native:
        circuit.add("Y90", qubit)
        circuit.add("X", qubit)
    else:
        circuit.add("H", qubit)


def _emit_z(circuit: Circuit, qubit: int, native: bool) -> None:
    """Pauli Z, optionally as the native pulse pair Y then X."""
    if native:
        circuit.add("Y", qubit)
        circuit.add("X", qubit)
    else:
        circuit.add("Z", qubit)


def grover2q_circuit(marked_state: int, qubit_a: int = 0, qubit_b: int = 2,
                     num_qubits: int = 3, native: bool = True,
                     include_measurement: bool = False) -> Circuit:
    """One-iteration two-qubit Grover search for ``marked_state``.

    ``marked_state`` is the two-bit integer ``(a << 1) | b`` with ``a``
    the state of ``qubit_a``.  Default addresses (0 and 2) match the
    Section 5 chip.
    """
    if not 0 <= marked_state <= 3:
        raise ValueError("marked state must be 0..3")
    circuit = Circuit(name=f"grover2q-{marked_state:02b}",
                      num_qubits=num_qubits)
    # 1. Superposition.
    _emit_h(circuit, qubit_a, native)
    _emit_h(circuit, qubit_b, native)
    # 2. Oracle: (Z^(1-b) (x) Z^(1-a)) . CZ phase-flips exactly |ab> —
    # note the crossing: Z acts on qubit a iff the *other* qubit's
    # marked bit is 0 (e.g. flipping |01> needs I (x) Z = Z on b).
    if not marked_state & 1:
        _emit_z(circuit, qubit_a, native)
    if not (marked_state >> 1) & 1:
        _emit_z(circuit, qubit_b, native)
    circuit.add("CZ", qubit_a, qubit_b)
    # 3. Back to the computational basis.
    _emit_h(circuit, qubit_a, native)
    _emit_h(circuit, qubit_b, native)
    # 4. Reflection about |00>.
    _emit_z(circuit, qubit_a, native)
    _emit_z(circuit, qubit_b, native)
    circuit.add("CZ", qubit_a, qubit_b)
    # 5. Decode.
    _emit_h(circuit, qubit_a, native)
    _emit_h(circuit, qubit_b, native)
    if include_measurement:
        circuit.add("MEASZ", qubit_a)
        circuit.add("MEASZ", qubit_b)
    return circuit


def grover2q_ideal_state(marked_state: int) -> np.ndarray:
    """The ideal two-qubit output amplitudes (the marked basis state).

    Each operation's matrix is lifted to the pair with ``np.kron``,
    qubit 0 the most significant bit, and applied to |00>.
    """
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    circuit = grover2q_circuit(marked_state, qubit_a=0, qubit_b=1,
                               num_qubits=2, native=False)
    for op in circuit:
        unitary = gates.gate_matrix(op.name)
        if op.qubits == (0,):
            unitary = np.kron(unitary, gates.I)
        elif op.qubits == (1,):
            unitary = np.kron(gates.I, unitary)
        state = unitary @ state
    return state
