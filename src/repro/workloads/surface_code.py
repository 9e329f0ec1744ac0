"""Distance-2 surface code on the seven-qubit chip (Section 4.1).

"[The chip] can implement a distance-2 surface code, which can detect
one physical error."  And Section 4.2: "An application that would
benefit significantly from SOMQ is quantum error correction, which
requires performing well-patterned error syndrome measurements
repeatedly presenting high parallelism."

Layout on the Fig. 6 topology (data qubits on the corners, ancillas in
the middle row, all couplings are allowed pairs of the chip):

* data qubits: 0, 1, 5, 6;
* ancilla 2 measures the Z-stabilizer Z0 Z5 (edges (2,0), (2,5));
* ancilla 4 measures the Z-stabilizer Z1 Z6 (edges (4,1), (4,6));
* ancilla 3 measures the X-stabilizer X0 X1 X5 X6
  (edges (3,0), (3,1), (3,5), (3,6) via their reverses).

All checks are built from the native gate set: ancilla in |+> (Y90),
CZ to each data qubit, decode with Ym90, measure.  X-checks conjugate
the data qubits with Ym90/Y90 so the CZ parity picks up X instead
of Z.

A syndrome round is highly parallel and well-patterned: the two
Z-checks run simultaneously (disjoint qubits), and the compiler's SOMQ
merging packs the identical Y90/measure layers into masked operations
— the quantified benefit is shown in ``benchmarks/bench_surface_code.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.compiler.ir import Circuit
from repro.core.errors import InvalidRequestError

DATA_QUBITS = (0, 1, 5, 6)
Z_CHECKS = {2: (0, 5), 4: (1, 6)}     # ancilla -> data pair
X_CHECK = {3: (0, 1, 5, 6)}           # ancilla -> data plaquette
ANCILLAS = (2, 3, 4)


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


def checks_round(circuit: Circuit, z_checks: dict[int, tuple[int, ...]],
                 x_checks: dict[int, tuple[int, ...]],
                 reset: bool = True) -> None:
    """Append every Z check, then every X check, each in ancilla order.

    Grouping the Z checks lets the disjoint ones schedule in parallel;
    an X check whose plaquette overlaps their data serialises after
    them.  ``reset`` appends each ancilla's conditional reset.
    """
    for ancilla, data in sorted(z_checks.items()):
        z_check_circuit(circuit, ancilla, data, reset=reset)
    for ancilla, data in sorted(x_checks.items()):
        x_check_circuit(circuit, ancilla, data, reset=reset)


def syndrome_round(circuit: Circuit, include_x_check: bool = True) -> None:
    """Append one full syndrome-extraction round: both Z-checks (they
    share no qubits), then the X-check (see :func:`checks_round`)."""
    checks_round(circuit, Z_CHECKS, X_CHECK if include_x_check else {})


def syndrome_rounds_circuit(
        name: str, num_qubits: int, data_qubits: tuple[int, ...],
        append_round: Callable[[Circuit], None], rounds: int,
        error: tuple[str, int] | None, error_after_round: int) -> Circuit:
    """``rounds`` syndrome rounds with an optional injected data error.

    ``append_round(circuit)`` emits one round.  ``error`` is a Pauli
    (``("X" | "Y" | "Z", data_qubit)``) applied after round
    ``error_after_round`` — emulating a physical fault the code must
    detect.  The native set has no Z gate, so Z is emitted as Y then X
    (equal up to a global phase).  Requests the circuit could not honour
    (no rounds, a non-Pauli, a non-data qubit, or an injection round
    past the last one) raise :class:`InvalidRequestError` instead of
    silently building a different experiment.
    """
    if rounds < 1:
        raise InvalidRequestError(
            f"need at least one round, got {rounds}")
    if error is not None:
        pauli, qubit = error
        if pauli not in ("X", "Y", "Z"):
            raise InvalidRequestError(
                f"injected errors are Paulis X, Y or Z, got {pauli!r}")
        if qubit not in data_qubits:
            raise InvalidRequestError(
                f"errors are injected on data qubits, got {qubit}")
        if not 0 <= error_after_round < rounds:
            raise InvalidRequestError(
                f"error_after_round must lie in [0, {rounds}), got "
                f"{error_after_round}")
    circuit = Circuit(name=name, num_qubits=num_qubits)
    for round_index in range(rounds):
        append_round(circuit)
        if error is not None and round_index == error_after_round:
            pauli, qubit = error
            for gate in (("Y", "X") if pauli == "Z" else (pauli,)):
                circuit.add(gate, qubit)
    return circuit


def surface_code_circuit(rounds: int = 1,
                         error: tuple[str, int] | None = None,
                         error_after_round: int = 0,
                         include_x_check: bool = False) -> Circuit:
    """Syndrome-extraction experiment circuit.

    ``error`` optionally injects a Pauli after round
    ``error_after_round`` (see :func:`syndrome_rounds_circuit`).  With
    data prepared in |0000> the Z-check outcomes are deterministic, so
    the default experiment omits the X-check (whose outcome on |0000>
    is intrinsically random); set ``include_x_check`` for full rounds.
    """
    return syndrome_rounds_circuit(
        "surface-code-d2", 7, DATA_QUBITS,
        lambda circuit: syndrome_round(circuit, include_x_check),
        rounds, error, error_after_round)


@dataclass(frozen=True)
class Syndrome:
    """One round's ancilla outcomes."""

    z_check_2: int   # parity of Z0 Z5
    z_check_4: int   # parity of Z1 Z6
    x_check_3: int | None = None

    def fired(self) -> bool:
        """Whether any deterministic (Z) check flagged an error."""
        return bool(self.z_check_2 or self.z_check_4)


def flips_z_checks(error: tuple[str, int] | None) -> bool:
    """Whether an injected Pauli anticommutes with Z (X and Y do)."""
    return error is not None and error[0] in ("X", "Y")


def expected_z_syndrome(error: tuple[str, int] | None) -> Syndrome:
    """Which Z-checks an injected error must fire (data from |0000>)."""
    flips = flips_z_checks(error)
    return Syndrome(z_check_2=int(flips and error[1] in Z_CHECKS[2]),
                    z_check_4=int(flips and error[1] in Z_CHECKS[4]))
