"""Pauli-frame batched multi-shot engine for the stabilizer backend.

The surface-code workloads of the eQASM paper (Fu et al., HPCA 2019)
are Clifford circuits with depolarizing gate error and readout
assignment error.  Simulated per shot, every trajectory repeats the
*same* tableau updates and differs only in which Pauli errors were
sampled — so at 17 qubits the interpreter spends its time re-deriving
an identical Clifford sequence thousands of times.  Pauli-frame
simulation (Knill's trick, the engine behind stim-style samplers)
removes the repetition: run ONE noise-free *reference* shot on the
tableau, recording the Clifford sequence, every stochastic-error site
and the measurement structure; then propagate a whole batch of
per-shot *frames* — a ``(shots, n)`` pair of X/Z bit matrices, each
row the Pauli error accumulated by one shot — through the recording
with vectorised numpy column operations.

**Eligibility rule** (enforced statically by
:meth:`repro.uarch.machine.QuMAv2.frame_batch_unsupported_reasons`):
the stabilizer backend must be selected (Clifford binary,
Pauli/readout-only noise), and the recorded Clifford/measurement
sequence must be *identical across shots* — no ``FMR`` result
consumption, no conditionally executed micro-operations, no injected
mock results, and none of the replay engine's hard blockers (live
data-memory traffic, untranslatable operations).  Outcome-dependent
control flow forks the gate sequence per shot, which a single
reference recording cannot represent; such programs fall back to the
per-shot tableau interpreter transparently.

**Accuracy contract**: within the eligible domain the batch is exact
*in distribution* — each frame row is one faithfully sampled Pauli
trajectory of the same depolarizing/readout unravelling the per-shot
backend uses, so joint outcome histograms agree with the per-shot
tableau (and the dense density matrix) up to sampling error.  The
mathematics: a frame ``P`` commutes through every recorded Clifford
``U`` as ``P -> U P U^dag`` (the same derived action table, sign
discarded — a frame's sign is a global phase).  A measurement of
``Z_a`` whose reference outcome was *deterministic* reports
``reference ^ frame_x[a]`` and leaves the frame unchanged; one whose
reference outcome was *random* reports a fresh uniform bit ``o`` and,
when ``o ^ frame_x[a]`` disagrees with the reference outcome,
multiplies the frame by the reference run's pre-collapse pivot
stabilizer ``Q`` (the anticommuting generator :meth:`collapse` pivots
on): ``Q`` maps the reference's post-measurement branch onto the other
branch, so the frame keeps tracking the shot's true state relative to
the reference trajectory.  Readout assignment error is classical and
applied column-wise after projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import PlantError
from repro.quantum.noise import ReadoutErrorModel
from repro.quantum.stabilizer import CliffordAction, StabilizerTableau


@dataclass(frozen=True, slots=True)
class GateStep:
    """One Clifford applied during the reference shot."""

    action: CliffordAction
    indices: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class NoiseStep:
    """One depolarizing-error site (probability deferred to the batch)."""

    indices: tuple[int, ...]
    probability: float


@dataclass(frozen=True, slots=True)
class MeasureStep:
    """One projective measurement of the reference shot.

    ``pivot_x``/``pivot_z`` are the pre-collapse pivot stabilizer's
    Pauli bits when the reference outcome was random (``p_one`` 0.5),
    None when it was deterministic.
    """

    index: int
    p_one: float
    reference_raw: int
    pivot_x: np.ndarray | None
    pivot_z: np.ndarray | None


class FrameRecorder:
    """Captures one reference shot's step sequence for frame batching.

    The machine installs a recorder as
    :attr:`repro.quantum.stabilizer.StabilizerBackend.frame_recorder`
    for exactly one interpreter shot.  The backend then records every
    applied Clifford, *defers* every stochastic gate-error site
    (recorded, not sampled — the reference trajectory must be
    noise-free for the frames to carry the noise exactly) and routes
    measurements through :meth:`record_measurement`, which captures the
    pre-collapse structure the batch needs before collapsing the
    tableau exactly as a plain shot would.
    """

    def __init__(self) -> None:
        self.steps: list[GateStep | NoiseStep | MeasureStep] = []
        self.measure_count = 0

    def record_gate(self, action: CliffordAction,
                    indices: tuple[int, ...]) -> None:
        self.steps.append(GateStep(action=action, indices=indices))

    def record_gate_error(self, indices: tuple[int, ...],
                          probability: float) -> None:
        self.steps.append(NoiseStep(indices=indices,
                                    probability=probability))

    def record_measurement(self, tableau: StabilizerTableau, index: int,
                           rng: np.random.Generator) -> int:
        """Measure ``index`` on the reference tableau, recording the
        pre-collapse probability and (for random outcomes) the pivot
        stabilizer.  The RNG draw matches
        :meth:`StabilizerTableau.measure` exactly, so the reference
        trajectory is reproducible against a plain noise-free shot."""
        p_one = tableau.probability_one(index)
        if p_one == 0.5:
            pivot = tableau.pivot_stabilizer(index)
            pivot_x, pivot_z = tableau.row_paulis(pivot)
            result = 1 if rng.random() < 0.5 else 0
        else:
            pivot_x = pivot_z = None
            result = int(p_one)
        tableau.collapse(index, result)
        self.steps.append(MeasureStep(
            index=index, p_one=p_one, reference_raw=result,
            pivot_x=pivot_x, pivot_z=pivot_z))
        self.measure_count += 1
        return result


def propagate_frames(steps, num_qubits: int, shots: int,
                     rng: np.random.Generator,
                     readout: ReadoutErrorModel
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Push ``shots`` Pauli frames through a recorded step sequence.

    Returns ``(raw, reported)`` uint8 matrices of shape
    ``(shots, measurements)`` — one row per shot, columns in the
    reference shot's measurement order.  All sampling (depolarizing
    injections, random-measurement outcomes, readout flips) is
    column-wise over the whole batch; the per-frame state is two
    ``(shots, num_qubits)`` bit matrices and every step costs O(shots)
    numpy work on the touched columns only.
    """
    if shots < 1:
        raise PlantError("need at least one shot to propagate")
    fx = np.zeros((shots, num_qubits), dtype=np.uint8)
    fz = np.zeros((shots, num_qubits), dtype=np.uint8)
    raw_columns: list[np.ndarray] = []
    reported_columns: list[np.ndarray] = []
    for step in steps:
        if isinstance(step, GateStep):
            bits = step.action.bits
            if len(step.indices) == 1:
                a = step.indices[0]
                v = fx[:, a] | (fz[:, a] << 1)
                image = bits[v]
                fx[:, a] = image & 1
                fz[:, a] = (image >> 1) & 1
            else:
                a, b = step.indices
                v = (fx[:, a] | (fz[:, a] << 1) |
                     (fx[:, b] << 2) | (fz[:, b] << 3))
                image = bits[v]
                fx[:, a] = image & 1
                fz[:, a] = (image >> 1) & 1
                fx[:, b] = (image >> 2) & 1
                fz[:, b] = (image >> 3) & 1
        elif isinstance(step, NoiseStep):
            k = len(step.indices)
            hit = rng.random(shots) < step.probability
            if not hit.any():
                continue
            v = rng.integers(1, 4 ** k, size=shots).astype(np.uint8)
            v = np.where(hit, v, 0).astype(np.uint8)
            for slot, qubit in enumerate(step.indices):
                fx[:, qubit] ^= (v >> (2 * slot)) & 1
                fz[:, qubit] ^= (v >> (2 * slot + 1)) & 1
        else:  # MeasureStep
            a = step.index
            if step.pivot_x is None:
                # Deterministic reference outcome: the frame's X
                # component flips it; projection changes nothing.
                raw = (step.reference_raw ^ fx[:, a]).astype(np.uint8)
            else:
                # Random reference outcome: every shot's outcome is a
                # fresh fair coin; shots landing on the branch the
                # reference did not take absorb the pivot stabilizer
                # into their frame.
                raw = rng.integers(0, 2, size=shots, dtype=np.uint8)
                flip = (raw ^ fx[:, a] ^ step.reference_raw) \
                    .astype(bool)
                if flip.any():
                    fx[flip] ^= step.pivot_x
                    fz[flip] ^= step.pivot_z
            raw_columns.append(raw)
            reported_columns.append(readout.apply_many(raw, rng))
    if not raw_columns:
        empty = np.zeros((shots, 0), dtype=np.uint8)
        return empty, empty.copy()
    return (np.column_stack(raw_columns),
            np.column_stack(reported_columns))
