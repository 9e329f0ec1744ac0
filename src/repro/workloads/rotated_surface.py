"""Rotated distance-3 and distance-5 surface codes (surface-17/49).

The distance-2 patch of Section 4.1 detects one error; the natural next
steps — and the chips the CC-Light control architecture was built
toward — are the rotated distance-``d`` layouts: ``d x d`` data qubits
and one ancilla per Z or X stabilizer, ``2d^2 - 1`` qubits in all
(:data:`repro.topology.library.ROTATED_SURFACE_LAYOUTS` holds the
checks).  No dense simulation reaches these widths (a 17-qubit density
matrix is ~256 GB); every gate in a syndrome round is Clifford, so the
stabilizer tableau backend runs them in polynomial time and the
machine's automatic backend selection picks it whenever the noise
model is Pauli/readout-only.

Rounds reuse the layout-agnostic distance-2 builder
(:func:`repro.workloads.surface_code.checks_round`): ancilla in |+>
via Y90, CZ to each data qubit, decode, measure, actively reset via
the conditional ``C_X`` — the paper's own Fig. 4 mechanism.  A round
emits every Z check, then every X check: the ASAP scheduler overlaps
the groups well, and interleaving them (Z, X, Z, X ...) lengthens a
distance-5 round with X checks from 71 to 83 cycles.

With data prepared in |0...0> the Z syndromes are deterministic and an
injected X or Y error must fire exactly the Z checks whose plaquette
contains it; the X-check outcomes on |0...0> are intrinsically random,
so the default experiment omits them (same convention as distance 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.ir import Circuit
from repro.topology.library import rotated_surface_layout
from repro.workloads.surface_code import (
    checks_round,
    flips_z_checks,
    syndrome_rounds_circuit,
)


def rotated_syndrome_round(circuit: Circuit, distance: int,
                           include_x_checks: bool = False,
                           reset: bool = True) -> None:
    """Append one full distance-``d`` syndrome-extraction round.

    Checks sharing a data qubit serialise there; everything else
    schedules in parallel and the compiler's SOMQ merging packs the
    identical Y90/measure layers into masked operations exactly as on
    the distance-2 patch.  ``reset=False`` omits the conditional
    ``C_X`` ancilla reset — the feedback-free variant whose gate
    sequence cannot fork on per-shot outcomes (what the Pauli-frame
    batched engine requires; with data in |0...0> the noise-free Z
    ancillas end in |0> anyway).
    """
    layout = rotated_surface_layout(distance)
    checks_round(circuit, layout.z_checks,
                 layout.x_checks if include_x_checks else {}, reset=reset)


def rotated_surface_circuit(distance: int, rounds: int = 2,
                            error: tuple[str, int] | None = None,
                            error_after_round: int = 0,
                            include_x_checks: bool = False,
                            reset: bool = True) -> Circuit:
    """Distance-``d`` syndrome-extraction experiment circuit.

    ``error`` optionally injects a Pauli on a data qubit after round
    ``error_after_round`` (see
    :func:`~repro.workloads.surface_code.syndrome_rounds_circuit`); a
    data X or Y error must flip exactly the Z stabilizers whose
    plaquette contains the qubit.  ``reset=False`` builds the
    feedback-free variant (see :func:`rotated_syndrome_round`).
    """
    layout = rotated_surface_layout(distance)
    return syndrome_rounds_circuit(
        f"surface-code-d{distance}", layout.num_qubits, layout.data_qubits,
        lambda circuit: rotated_syndrome_round(
            circuit, distance, include_x_checks=include_x_checks,
            reset=reset),
        rounds, error, error_after_round)


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
    """Which Z checks an injected error must fire (data from |0...0>)."""
    layout = rotated_surface_layout(distance)
    flips = flips_z_checks(error)
    return RotatedSyndrome(z_checks=tuple(
        (ancilla, int(flips and error[1] in layout.z_checks[ancilla]))
        for ancilla in layout.z_ancillas))
