"""Surface-code error detection on the full stack.

Runs repeated syndrome extraction — the machine compiles and executes
the rounds, ancilla measurement results stream back per round, and an
injected data-qubit error must flip exactly the stabilizers it
anticommutes with.  Every runner returns a :class:`SurfaceCodeResult`.

Three program shapes are covered:

* the **compiler path** (:func:`run_surface_code_experiment`):
  :func:`~repro.workloads.surface_code.surface_code_circuit` unrolls
  the rounds at compile time and the backend emits straight-line
  eQASM;
* the **looped binary** (:func:`run_looped_surface_code_experiment`):
  one hand-written syndrome round inside a counted ``SUB``/``CMP``/
  ``BR`` loop — the instruction-memory-friendly form a real control
  processor would run for many rounds.  The dataflow pass unrolls the
  counter statically, so the looping binary still rides the
  branch-resolved replay engine (``EngineStats.bounded_loops``);
* the **rotated distance-3/5 chips**
  (:func:`run_rotated_surface_experiment`): surface-17 and surface-49
  on their wide instantiations, where only the stabilizer tableau can
  hold the state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ExperimentIntegrityError, InvalidRequestError
from repro.core.isa import (
    rotated_surface_instantiation,
    seven_qubit_instantiation,
)
from repro.experiments.runner import ExperimentSetup
from repro.quantum.noise import NoiseModel
from repro.topology.library import rotated_surface_layout
from repro.uarch.replay import EngineStats
from repro.workloads.rotated_surface import (
    RotatedSyndrome,
    rotated_surface_circuit,
)
from repro.workloads.surface_code import (
    Syndrome,
    surface_code_circuit,
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

    rounds: int
    #: One :class:`Syndrome` (distance 2) or :class:`RotatedSyndrome`
    #: (distances 3 and 5) per round, per shot.
    syndromes_per_shot: list[list[Syndrome | RotatedSyndrome]]
    #: Per-run engine statistics — repeated syndrome extraction rides
    #: the branch-resolved replay tree (one cached path per observed
    #: ancilla-outcome history).
    engine_stats: EngineStats = field(default_factory=EngineStats)
    #: Which plant backend held the state ("stabilizer" for the rotated
    #: chips — a dense matrix cannot even be allocated at 17 qubits).
    plant_backend: str | None = None

    def detection_fraction(self, round_index: int) -> float:
        """Fraction of shots whose syndrome fired in a given round."""
        fired = sum(1 for shot in self.syndromes_per_shot
                    if shot[round_index].fired())
        return fired / len(self.syndromes_per_shot)


def _round_bits(trace, ancillas: tuple[int, ...],
                rounds: int) -> list[tuple[int, ...]]:
    """Per round, the reported bits of ``ancillas`` in one shot."""
    per_ancilla = [[r.reported_result for r in trace.results_for(ancilla)]
                   for ancilla in ancillas]
    for ancilla, results in zip(ancillas, per_ancilla):
        if len(results) != rounds:
            raise ExperimentIntegrityError(
                f"expected {rounds} results on ancilla {ancilla} per "
                f"shot, got {len(results)}",
                expected=rounds, got=len(results), ancilla=ancilla)
    return list(zip(*per_ancilla))


def _surface_code_result(setup: ExperimentSetup, traces,
                         rounds: int) -> SurfaceCodeResult:
    """Reduce streamed distance-2 shots to per-round Z syndromes."""
    syndromes_per_shot = [
        [Syndrome(*bits) for bits in _round_bits(trace, (2, 4), rounds)]
        for trace in traces]
    return SurfaceCodeResult(rounds=rounds,
                             syndromes_per_shot=syndromes_per_shot,
                             engine_stats=setup.last_engine_stats,
                             plant_backend=setup.last_plant_backend)


def run_surface_code_experiment(
        rounds: int = 2,
        error: tuple[str, int] | None = None,
        error_after_round: int = 0,
        shots: int = 50, seed: int = 29,
        noise: NoiseModel | None = None) -> SurfaceCodeResult:
    """Execute syndrome rounds and collect per-round Z syndromes.

    Shots are streamed: each trace is reduced to its per-round
    syndromes as it is produced, so only O(rounds) data per shot is
    retained while the machine replays cached outcome paths.
    """
    setup = ExperimentSetup.create(
        isa=seven_qubit_instantiation(),
        noise=noise if noise is not None else NoiseModel.noiseless(),
        seed=seed)
    circuit = surface_code_circuit(rounds=rounds, error=error,
                                   error_after_round=error_after_round)
    return _surface_code_result(
        setup, setup.run_circuit_iter(circuit, shots), rounds)


def run_looped_surface_code_experiment(
        rounds: int = 4,
        shots: int = 200, seed: int = 29,
        noise: NoiseModel | None = None) -> SurfaceCodeResult:
    """Execute the counted-loop syndrome binary and collect syndromes.

    Unlike :func:`run_surface_code_experiment` the rounds are *not*
    unrolled at compile time: the machine genuinely executes the
    backward branch every round, and the static analysis proves the
    trip count so the whole run still replays.  Shots are streamed and
    reduced to per-round Z syndromes exactly like the compiled path.
    """
    setup = ExperimentSetup.create(
        isa=seven_qubit_instantiation(),
        noise=noise if noise is not None else NoiseModel.noiseless(),
        seed=seed)
    assembled = setup.assemble_text(looped_surface_code_program(rounds))
    return _surface_code_result(
        setup, setup.run_iter(assembled, shots), rounds)


def run_rotated_surface_experiment(
        distance: int,
        rounds: int = 2,
        error: tuple[str, int] | None = None,
        error_after_round: int = 0,
        shots: int = 50, seed: int = 29,
        noise: NoiseModel | None = None,
        plant_backend: str = "auto") -> SurfaceCodeResult:
    """Distance-``d`` syndrome extraction on the rotated surface chip.

    This experiment is *only* runnable on the stabilizer-tableau plant
    backend — a 17-qubit density matrix is ~256 GB, a 49-qubit one
    ~2^100 bytes — so the noise model must stay Pauli/readout-only (the
    default is noiseless); the machine's automatic backend selection
    then picks the tableau, and with zero gate error the
    branch-resolved replay tree compounds on top.  Shots are streamed
    and reduced to per-round Z syndromes exactly like the distance-2
    experiment.

    ``plant_backend`` is forwarded to the machine.  Pinning ``"dense"``
    does *not* OOM the host: admission control refuses the density
    matrix up front with a structured
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
    ancillas = rotated_surface_layout(distance).z_ancillas
    syndromes_per_shot = [
        [RotatedSyndrome(z_checks=tuple(zip(ancillas, bits)))
         for bits in _round_bits(trace, ancillas, rounds)]
        for trace in setup.run_circuit_iter(circuit, shots)]
    return SurfaceCodeResult(rounds=rounds,
                             syndromes_per_shot=syndromes_per_shot,
                             engine_stats=setup.last_engine_stats,
                             plant_backend=setup.last_plant_backend)


def format_surface_code_report(clean: SurfaceCodeResult,
                               faulty: SurfaceCodeResult,
                               error: tuple[str, int]) -> str:
    """Render clean-vs-faulty detection fractions per round."""
    lines = ["distance-2 surface code, Z-syndrome detection:"]
    for round_index in range(clean.rounds):
        lines.append(
            f"  round {round_index}: clean "
            f"{clean.detection_fraction(round_index) * 100:5.1f}%   "
            f"with {error[0]} on q{error[1]} "
            f"{faulty.detection_fraction(round_index) * 100:5.1f}%")
    return "\n".join(lines)
