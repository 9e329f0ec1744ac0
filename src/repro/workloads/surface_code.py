"""Rotated surface codes of distance 2, 3 and 5 (surface-7/17/49).

"[The chip] can implement a distance-2 surface code, which can detect
one physical error" (Section 4.1): the seven-qubit chip of Fig. 6 is
the smallest rotated surface code, and the chips the CC-Light control
architecture was built toward are its distance-3 and distance-5
siblings.  A distance-``d`` chip holds ``d x d`` data qubits and one
ancilla per Z or X stabilizer, ``2d^2 - 1`` qubits in all
(:data:`repro.topology.library.ROTATED_SURFACE_LAYOUTS` holds the
checks).  And Section 4.2: "An application that would benefit
significantly from SOMQ is quantum error correction, which requires
performing well-patterned error syndrome measurements repeatedly
presenting high parallelism."

Every check is built from the native gate set: ancilla in |+> via
Y90, CZ to each data qubit, decode with Ym90, measure, and actively
reset via the conditional ``C_X`` — the paper's own Fig. 4 mechanism.
X checks conjugate the data qubits with Ym90/Y90 so the CZ parity
picks up X instead of Z.  A round emits every Z check, then every X
check, each group in ancilla order: disjoint checks schedule in
parallel, the compiler's SOMQ merging packs the identical Y90/measure
layers into masked operations (quantified in
``tests/paper/test_sec42_surface_code_somq.py``), and interleaving the
groups (Z, X, Z, X ...) lengthens a distance-5 round with X checks
from 71 to 83 cycles.

With data prepared in |0...0> the Z syndromes are deterministic and an
injected X or Y error must fire exactly the Z checks whose plaquette
contains it; the X-check outcomes on |0...0> are intrinsically random,
so the default experiment omits them.  Every gate of a round is
Clifford, so under Pauli/readout-only noise the machine's automatic
backend selection runs the 17- and 49-qubit chips on the stabilizer
tableau (a 17-qubit density matrix is ~256 GB).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.ir import Circuit
from repro.core.errors import InvalidRequestError
from repro.topology.library import rotated_surface_layout


def ancilla_reset(circuit: Circuit, ancilla: int,
                  pad_cycles: int = 4) -> None:
    """Active ancilla reset via fast conditional execution.

    After a syndrome measurement the ancilla stays in the measured
    state; reusing it next round would alternate odd-parity outcomes.
    The reset is the paper's own mechanism (Fig. 4): a ``C_X``
    conditioned on the last result being |1>.  ``pad_cycles`` identity
    pulses keep the conditional gate behind the execution-flag update
    (result transport + ingest + flag refresh ≈ 3 cycles past the
    15-cycle integration window).
    """
    for _ in range(pad_cycles):
        circuit.add("I", ancilla)
    circuit.add("C_X", ancilla)


def z_check_circuit(circuit: Circuit, ancilla: int,
                    data: tuple[int, ...],
                    reset: bool = True) -> None:
    """Append one CZ-based Z-parity check: outcome = parity of data."""
    circuit.add("Y90", ancilla)
    for qubit in data:
        circuit.add("CZ", ancilla, qubit)
    circuit.add("YM90", ancilla)
    circuit.add("MEASZ", ancilla)
    if reset:
        ancilla_reset(circuit, ancilla)


def x_check_circuit(circuit: Circuit, ancilla: int,
                    data: tuple[int, ...],
                    reset: bool = True) -> None:
    """Append one X-parity check (data conjugated into the X basis)."""
    circuit.add("Y90", ancilla)
    for qubit in data:
        circuit.add("YM90", qubit)
    for qubit in data:
        circuit.add("CZ", ancilla, qubit)
    for qubit in data:
        circuit.add("Y90", qubit)
    circuit.add("YM90", ancilla)
    circuit.add("MEASZ", ancilla)
    if reset:
        ancilla_reset(circuit, ancilla)


def rotated_syndrome_round(circuit: Circuit, distance: int,
                           include_x_checks: bool = False,
                           reset: bool = True) -> None:
    """Append one full distance-``d`` syndrome-extraction round.

    Every Z check, then (``include_x_checks``) every X check, each in
    ancilla order.  ``reset=False`` omits the conditional ``C_X``
    ancilla reset — the feedback-free variant whose gate sequence
    cannot fork on per-shot outcomes (what the Pauli-frame batched
    engine requires; with data in |0...0> the noise-free Z ancillas
    end in |0> anyway).
    """
    layout = rotated_surface_layout(distance)
    for ancilla, data in sorted(layout.z_checks.items()):
        z_check_circuit(circuit, ancilla, data, reset=reset)
    if include_x_checks:
        for ancilla, data in sorted(layout.x_checks.items()):
            x_check_circuit(circuit, ancilla, data, reset=reset)


def rotated_surface_circuit(distance: int, rounds: int = 2,
                            error: tuple[str, int] | None = None,
                            error_after_round: int = 0,
                            include_x_checks: bool = False,
                            reset: bool = True) -> Circuit:
    """Distance-``d`` syndrome-extraction experiment circuit.

    ``error`` optionally injects a Pauli (``("X" | "Y" | "Z",
    data_qubit)``) after round ``error_after_round`` — emulating a
    physical fault the code must detect; a data X or Y error must flip
    exactly the Z stabilizers whose plaquette contains the qubit.  The
    native set has no Z gate, so Z is emitted as Y then X (equal up to
    a global phase).  Requests the circuit could not honour (no rounds,
    a non-Pauli, a non-data qubit, or an injection round past the last
    one) raise :class:`InvalidRequestError` instead of silently
    building a different experiment.  ``reset=False`` builds the
    feedback-free variant (see :func:`rotated_syndrome_round`).
    """
    layout = rotated_surface_layout(distance)
    if rounds < 1:
        raise InvalidRequestError(
            f"need at least one round, got {rounds}")
    if error is not None:
        pauli, qubit = error
        if pauli not in ("X", "Y", "Z"):
            raise InvalidRequestError(
                f"injected errors are Paulis X, Y or Z, got {pauli!r}")
        if qubit not in layout.data_qubits:
            raise InvalidRequestError(
                f"errors are injected on data qubits, got {qubit}")
        if not 0 <= error_after_round < rounds:
            raise InvalidRequestError(
                f"error_after_round must lie in [0, {rounds}), got "
                f"{error_after_round}")
    circuit = Circuit(name=f"surface-code-d{distance}",
                      num_qubits=layout.num_qubits)
    for round_index in range(rounds):
        rotated_syndrome_round(circuit, distance,
                               include_x_checks=include_x_checks,
                               reset=reset)
        if error is not None and round_index == error_after_round:
            pauli, qubit = error
            for gate in (("Y", "X") if pauli == "Z" else (pauli,)):
                circuit.add(gate, qubit)
    return circuit


@dataclass(frozen=True)
class RotatedSyndrome:
    """One round's Z-check outcomes, keyed by ancilla address."""

    z_checks: tuple[tuple[int, int], ...]   # (ancilla, bit), sorted

    def bit(self, ancilla: int) -> int:
        for address, value in self.z_checks:
            if address == ancilla:
                return value
        raise KeyError(f"no Z check on ancilla {ancilla}")

    def fired(self) -> bool:
        """Whether any deterministic (Z) check flagged an error."""
        return any(value for _, value in self.z_checks)


def expected_rotated_z_syndrome(
        distance: int, error: tuple[str, int] | None) -> RotatedSyndrome:
    """Which Z checks an injected error must fire (data from |0...0>):
    those containing the qubit, if the Pauli anticommutes with Z (X
    and Y do)."""
    layout = rotated_surface_layout(distance)
    flips = error is not None and error[0] in ("X", "Y")
    return RotatedSyndrome(z_checks=tuple(
        (ancilla, int(flips and error[1] in layout.z_checks[ancilla]))
        for ancilla in layout.z_ancillas))
