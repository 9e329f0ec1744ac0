"""Surface-code error detection on the full stack.

Runs repeated syndrome extraction — the machine compiles and executes
the rounds, ancilla measurement results stream back per round, and an
injected data-qubit error must flip exactly the stabilizers it
anticommutes with.  Every runner returns a :class:`SurfaceCodeResult`,
reduced from the traces by one syndrome reducer.

Two program shapes are covered:

* the **compiler path** (:func:`run_rotated_surface_experiment`):
  :func:`~repro.workloads.surface_code.rotated_surface_circuit`
  unrolls the rounds at compile time and the backend emits
  straight-line eQASM, on any chip of the rotated family — the
  seven-qubit chip of Fig. 6 (distance 2), surface-17 and surface-49;
* the **looped binary** (:func:`run_looped_surface_code_experiment`):
  one hand-written distance-2 syndrome round inside a counted
  ``SUB``/``CMP``/``BR`` loop — the instruction-memory-friendly form a
  real control processor would run for many rounds.  The dataflow
  pass unrolls the counter statically, so the looping binary still
  rides the branch-resolved replay engine
  (``EngineStats.bounded_loops``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ExperimentIntegrityError, InvalidRequestError
from repro.core.isa import rotated_surface_instantiation
from repro.experiments.runner import ExperimentSetup
from repro.quantum.noise import NoiseModel
from repro.topology.library import rotated_surface_layout
from repro.uarch.replay import EngineStats
from repro.workloads.surface_code import (
    RotatedSyndrome,
    rotated_surface_circuit,
)

#: One parallel Z-syndrome round (both ancillas masked together, the
#: CZ layers paired per SMIT register) inside a counted loop — the
#: ``{rounds}`` placeholder is the trip count.  Ancilla reset is the
#: paper's own mechanism (Fig. 4): a C_X conditioned on the last
#: result, fired after the execution flags refreshed.
LOOPED_SURFACE_CODE_TEMPLATE = """
SMIS S1, {{2, 4}}
SMIT T0, {{(2, 0), (4, 1)}}
SMIT T1, {{(2, 5), (4, 6)}}
LDI R0, 1
LDI R3, {rounds}
QWAIT 10000
loop:
Y90 S1
QWAIT 5
CZ T0
QWAIT 5
CZ T1
QWAIT 5
YM90 S1
QWAIT 50
MEASZ S1
QWAIT 50
{reset}SUB R3, R3, R0
CMP R3, R0
BR GE, loop
QWAIT 50
STOP
"""


def looped_surface_code_program(rounds: int, reset: bool = True) -> str:
    """The counted-loop syndrome-extraction binary (eQASM text).

    ``reset=False`` omits the conditional ``C_X`` ancilla reset —
    the feedback-free loop variant whose gate sequence cannot fork
    on per-shot outcomes, which is what the Pauli-frame batched
    engine requires (with data in |00..0> the noise-free Z ancillas
    end in |0> anyway).
    """
    if rounds < 1:
        raise InvalidRequestError(
            f"need at least one round, got {rounds}")
    reset_block = "C_X S1\nQWAIT 5\n" if reset else ""
    return LOOPED_SURFACE_CODE_TEMPLATE.format(rounds=rounds,
                                               reset=reset_block)


@dataclass
class SurfaceCodeResult:
    """Per-round syndromes over all shots."""

    distance: int
    rounds: int
    #: One :class:`RotatedSyndrome` per round, per shot.
    syndromes_per_shot: list[list[RotatedSyndrome]]
    #: Per-run engine statistics — repeated syndrome extraction rides
    #: the branch-resolved replay tree (one cached path per observed
    #: ancilla-outcome history).
    engine_stats: EngineStats = field(default_factory=EngineStats)
    #: Which plant backend held the state ("stabilizer" for surface-17
    #: and surface-49 — a dense matrix cannot even be allocated at 17
    #: qubits).
    plant_backend: str | None = None

    def detection_fraction(self, round_index: int) -> float:
        """Fraction of shots whose syndrome fired in a given round."""
        fired = sum(1 for shot in self.syndromes_per_shot
                    if shot[round_index].fired())
        return fired / len(self.syndromes_per_shot)


def _syndrome_result(setup: ExperimentSetup, traces, distance: int,
                     rounds: int) -> SurfaceCodeResult:
    """Reduce streamed shots to per-round Z syndromes of the chip."""
    ancillas = rotated_surface_layout(distance).z_ancillas
    syndromes_per_shot = []
    for trace in traces:
        per_ancilla = [
            [r.reported_result for r in trace.results_for(ancilla)]
            for ancilla in ancillas]
        for ancilla, results in zip(ancillas, per_ancilla):
            if len(results) != rounds:
                raise ExperimentIntegrityError(
                    f"expected {rounds} results on ancilla {ancilla} per "
                    f"shot, got {len(results)}",
                    expected=rounds, got=len(results), ancilla=ancilla)
        syndromes_per_shot.append(
            [RotatedSyndrome(z_checks=tuple(zip(ancillas, bits)))
             for bits in zip(*per_ancilla)])
    return SurfaceCodeResult(distance=distance, rounds=rounds,
                             syndromes_per_shot=syndromes_per_shot,
                             engine_stats=setup.last_engine_stats,
                             plant_backend=setup.last_plant_backend)


def run_looped_surface_code_experiment(
        rounds: int = 4,
        shots: int = 200, seed: int = 29,
        noise: NoiseModel | None = None) -> SurfaceCodeResult:
    """Execute the counted-loop syndrome binary and collect syndromes.

    Unlike :func:`run_rotated_surface_experiment` the rounds are *not*
    unrolled at compile time: the machine genuinely executes the
    backward branch every round, and the static analysis proves the
    trip count so the whole run still replays.  Shots are streamed and
    reduced to per-round Z syndromes exactly like the compiled path.
    """
    setup = ExperimentSetup.create(
        isa=rotated_surface_instantiation(2),
        noise=noise if noise is not None else NoiseModel.noiseless(),
        seed=seed)
    assembled = setup.assemble_text(looped_surface_code_program(rounds))
    return _syndrome_result(
        setup, setup.run_iter(assembled, shots), 2, rounds)


def run_rotated_surface_experiment(
        distance: int,
        rounds: int = 2,
        error: tuple[str, int] | None = None,
        error_after_round: int = 0,
        shots: int = 50, seed: int = 29,
        noise: NoiseModel | None = None,
        plant_backend: str = "auto") -> SurfaceCodeResult:
    """Distance-``d`` syndrome extraction on the rotated surface chip.

    The default noise is noiseless, so the machine's automatic backend
    selection picks the stabilizer tableau and, with zero gate error,
    the branch-resolved replay tree compounds on top.  A noise model
    with T1/T2 decoherence needs the dense density matrix, which the
    seven-qubit chip (``d = 2``) can hold; at ``d = 3`` and ``d = 5``
    (a 17-qubit density matrix is ~256 GB, a 49-qubit one ~2^100
    bytes) the noise must stay Pauli/readout-only.  Shots are streamed:
    each trace is reduced to its per-round Z syndromes as it is
    produced, so only O(rounds) data per shot is retained.

    ``plant_backend`` is forwarded to the machine.  Pinning ``"dense"``
    on the wide chips does *not* OOM the host: admission control
    refuses the density matrix up front with a structured
    :class:`~repro.core.errors.ResourceError` whose context carries the
    byte estimate, the budget, and the suggestion to use
    ``plant_backend='stabilizer'``.
    """
    setup = ExperimentSetup.create(
        isa=rotated_surface_instantiation(distance),
        noise=noise if noise is not None else NoiseModel.noiseless(),
        seed=seed, plant_backend=plant_backend)
    circuit = rotated_surface_circuit(distance, rounds=rounds, error=error,
                                      error_after_round=error_after_round)
    return _syndrome_result(
        setup, setup.run_circuit_iter(circuit, shots), distance, rounds)


def format_surface_code_report(clean: SurfaceCodeResult,
                               faulty: SurfaceCodeResult,
                               error: tuple[str, int]) -> str:
    """Render clean-vs-faulty detection fractions per round."""
    lines = [f"distance-{clean.distance} surface code, "
             "Z-syndrome detection:"]
    for round_index in range(clean.rounds):
        lines.append(
            f"  round {round_index}: clean "
            f"{clean.detection_fraction(round_index) * 100:5.1f}%   "
            f"with {error[0]} on q{error[1]} "
            f"{faulty.detection_fraction(round_index) * 100:5.1f}%")
    return "\n".join(lines)
