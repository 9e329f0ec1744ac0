"""Pauli-frame batched multi-shot engine for the stabilizer backend.

The surface-code workloads of the eQASM paper (Fu et al., HPCA 2019)
are Clifford circuits with depolarizing gate error and readout
assignment error.  Simulated per shot, every trajectory repeats the
*same* tableau updates and differs only in which Pauli errors were
sampled — so at 17 qubits the interpreter spends its time re-deriving
an identical Clifford sequence thousands of times.  Pauli-frame
simulation (Knill's trick, the engine behind stim-style samplers)
removes the repetition: run one noise-free *reference* shot on the
tableau per loaded binary, recording the Clifford sequence, every
stochastic-error site and the measurement structure into an immutable
:class:`FrameRecording`; then propagate whole batches of per-shot
*frames* — the Pauli error each shot has accumulated — through the
recording.  Like Stim's reference sample, the recording is computed
once and kept: the machine reuses it for every later run of the same
binary, noise model, config and backend (see
:meth:`repro.uarch.machine.QuMAv2._frame_shots`).

**Layout** (Gidney, "Stim: a fast stabilizer circuit simulator",
Quantum 5, 497, 2021): the batch is qubit-major and bit-packed, 64
shots per machine word.  Row ``2q`` of a ``(2n, ⌈shots/64⌉)`` uint64
plane array holds the X bits of qubit ``q`` for every shot, row
``2q + 1`` its Z bits; shot ``s`` is bit ``s % 64`` of word
``s // 64``, and the bits past ``shots`` in the last word are always
zero.  Measurement outcomes leave the batch in the same packing, one
row per measurement.

**Gates are XORs of planes.**  A frame ``P`` commutes through a
recorded Clifford ``U`` as ``P -> U P U^dag`` with the sign discarded
(a frame's sign is a global phase).  Sign-free conjugation is a
GF(2)-linear map of the (x, z) bits — the symplectic representation —
so the image of any frame is the XOR of the images of its set bits:
``bits[v] == XOR of bits[1 << i]`` over the bits ``i`` of ``v``.  Each
output plane of a gate is therefore the XOR of the input planes that
:attr:`CliffordAction.bits` ``[1 << i]`` routes to it, for all 64 shots
of a word at once.  :func:`~repro.quantum.stabilizer.plane_program`
reduces that 2k x 2k binary matrix to a short sequence of in-place
``plane[d] ^= plane[s]`` steps (a CZ is two, an H three, a Pauli gate
none); the tableau runs the same steps on its int columns.

**Noise is sampled exactly and sparsely.**  A depolarizing site of
probability ``p`` hits each shot independently, so the number of hits
is ``k ~ Binomial(shots, p)`` and, given ``k``, the hit shots are a
uniform ``k``-subset; each hit gets a uniform non-identity Pauli,
XORed into the planes one bit at a time.  At ``p = 1e-3`` that is a
few dozen bits per site instead of one uniform per shot.  Readout
assignment error flips a packed Bernoulli mask sampled the same way,
one mask per rate (``p01`` on shots that read 0, ``p10`` on shots that
read 1; one mask when the two rates are equal).

**Measurements.**  A measurement of ``Z_a`` whose reference outcome
was *deterministic* reports ``reference ^ x_a`` and leaves the frame
unchanged; one whose reference outcome was *random* reports fresh fair
bits ``o`` (packed random words) and, on the shots where
``o ^ x_a`` disagrees with the reference outcome, multiplies the frame
by the reference run's pre-collapse pivot stabilizer ``Q`` (the
anticommuting generator :meth:`StabilizerTableau.collapse` pivots on):
``Q`` maps the reference's post-measurement branch onto the other
branch, so the frame keeps tracking the shot's true state relative to
the reference trajectory.

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
*in distribution* — each shot's frame is one faithfully sampled Pauli
trajectory of the same depolarizing/readout unravelling the per-shot
backend uses, so joint outcome histograms agree with the per-shot
tableau (and the dense density matrix) up to sampling error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import PlantError
from repro.quantum.noise import ReadoutErrorModel
from repro.quantum.stabilizer import CliffordAction, StabilizerTableau

#: One packed word: 64 shots, little-endian so a byte view orders the
#: bits by shot.
WORD = np.dtype("<u8")

#: ``_BIT[i]`` is the word with only bit ``i`` set.
_BIT = np.left_shift(np.ones(64, dtype=WORD), np.arange(64, dtype=WORD))

#: Bit positions of the (x, z) planes of a 1- or 2-qubit Pauli index.
_PLANE_SHIFTS = np.arange(4)

_NO_HITS = np.zeros(0, dtype=np.int64)


def _frozen(array: np.ndarray | None) -> np.ndarray | None:
    """``array`` made read-only (a recording is kept across runs)."""
    if array is not None:
        array.setflags(write=False)
    return array


def words_for(shots: int) -> int:
    """Packed words per plane for a batch of ``shots``."""
    return -(-shots // 64)


def pack_shots(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(shots, m)`` 0/1 matrix into ``(m, words)`` planes."""
    shots, m = bits.shape
    packed = np.zeros((m, 8 * words_for(shots)), dtype=np.uint8)
    packed[:, :-(-shots // 8)] = np.packbits(
        np.asarray(bits, dtype=bool).T, axis=1, bitorder="little")
    return packed.view(WORD)


def unpack_shots(planes: np.ndarray, shots: int) -> np.ndarray:
    """The ``(shots, m)`` uint8 matrix of ``(m, words)`` packed planes."""
    return np.unpackbits(np.ascontiguousarray(planes, dtype=WORD)
                         .view(np.uint8), axis=1, count=shots,
                         bitorder="little").T


@dataclass(frozen=True, slots=True)
class GateStep:
    """One Clifford applied during the reference shot.  ``xors`` is
    its frame action as in-place plane XORs on the batch's global
    plane rows: the action's own column program
    (:attr:`CliffordAction.program`, the one the tableau runs)."""

    action: CliffordAction
    indices: tuple[int, ...]
    xors: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self) -> None:
        rows = [2 * qubit + plane for qubit in self.indices
                for plane in (0, 1)]
        object.__setattr__(self, "xors", tuple(
            (rows[d], rows[s]) for d, s in self.action.program))


@dataclass(frozen=True, slots=True)
class NoiseStep:
    """One depolarizing-error site (probability deferred to the batch).
    ``rows`` are the plane rows of its qubits, in Pauli-index bit
    order."""

    indices: tuple[int, ...]
    probability: float
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", _frozen(np.array(
            [2 * qubit + plane for qubit in self.indices
             for plane in (0, 1)], dtype=np.intp)))


@dataclass(frozen=True, slots=True)
class MeasureStep:
    """One projective measurement of the reference shot.

    ``pivot_x``/``pivot_z`` are the pre-collapse pivot stabilizer's
    Pauli bits when the reference outcome was random (``p_one`` 0.5),
    None when it was deterministic; ``pivot_rows`` are its plane rows.
    """

    index: int
    p_one: float
    reference_raw: int
    pivot_x: np.ndarray | None
    pivot_z: np.ndarray | None
    pivot_rows: np.ndarray | None = field(init=False, repr=False,
                                          compare=False)

    def __post_init__(self) -> None:
        rows = None
        if self.pivot_x is not None:
            rows = np.flatnonzero(np.stack(
                (self.pivot_x, self.pivot_z), axis=1).ravel())
        _frozen(self.pivot_x)
        _frozen(self.pivot_z)
        object.__setattr__(self, "pivot_rows", _frozen(rows))


@dataclass(frozen=True, slots=True)
class FrameRecording:
    """One reference shot's step sequence, frozen: the steps in the
    order the shot applied them and how many of them are
    measurements (the outcome rows :func:`propagate_frames` returns).
    Immutable down to its arrays, so one recording can serve every
    later run of its binary."""

    steps: tuple[GateStep | NoiseStep | MeasureStep, ...]
    measurements: int


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
    tableau exactly as a plain shot would.  :meth:`freeze` turns the
    capture into the :class:`FrameRecording` the batch propagates.
    """

    def __init__(self) -> None:
        self.steps: list[GateStep | NoiseStep | MeasureStep] = []
        self.measure_count = 0

    def freeze(self) -> FrameRecording:
        """The captured steps as an immutable :class:`FrameRecording`."""
        return FrameRecording(tuple(self.steps), self.measure_count)

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


def _sample_hits(rng: np.random.Generator, shots: int,
                 probability: float) -> np.ndarray:
    """The shots an independent Bernoulli(``probability``) event hits:
    ``k ~ Binomial(shots, p)``, then a uniform ``k``-subset of
    ``range(shots)`` (in no particular order).  Draws nothing when
    ``probability`` is zero."""
    if probability <= 0.0:
        return _NO_HITS
    hits = int(rng.binomial(shots, probability))
    if not hits:
        return _NO_HITS
    return rng.choice(shots, size=hits, replace=False, shuffle=False)


def _bernoulli_words(rng: np.random.Generator, shots: int,
                     probability: float) -> np.ndarray:
    """A packed mask with each of ``shots`` bits set independently with
    ``probability`` (:func:`_sample_hits`), padding bits clear."""
    mask = np.zeros(words_for(shots), dtype=WORD)
    hits = _sample_hits(rng, shots, probability)
    if len(hits):
        np.bitwise_or.at(mask, hits >> 6, _BIT[hits & 63])
    return mask


def apply_gate(planes: np.ndarray, step: GateStep) -> None:
    """Push every frame of ``planes`` through one recorded Clifford."""
    for d, s in step.xors:
        np.bitwise_xor(planes[d], planes[s], out=planes[d])


def _apply_noise(planes: np.ndarray, step: NoiseStep, shots: int,
                 rng: np.random.Generator) -> None:
    """Inject one depolarizing site: a uniform non-identity Pauli on
    each hit shot, XORed bit by bit into its planes."""
    hits = _sample_hits(rng, shots, step.probability)
    if not len(hits):
        return
    paulis = rng.integers(1, 4 ** len(step.indices), size=len(hits))
    hit, plane = np.nonzero(
        (paulis[:, None] >> _PLANE_SHIFTS[:len(step.rows)]) & 1)
    shot = hits[hit]
    np.bitwise_xor.at(planes.reshape(-1),
                      step.rows[plane] * planes.shape[1] + (shot >> 6),
                      _BIT[shot & 63])


def propagate_frames(recording: FrameRecording, num_qubits: int,
                     shots: int, rng: np.random.Generator,
                     readout: ReadoutErrorModel
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Push ``shots`` Pauli frames through a recorded step sequence.

    Returns ``(raw, reported)`` packed ``(recording.measurements,
    words)`` uint64 arrays — one row per measurement in the reference
    shot's order, shot ``s`` at bit ``s % 64`` of word ``s // 64``,
    padding bits clear (:func:`unpack_shots` gives the ``(shots,
    measurements)`` matrix).  The frames are ``(2 * num_qubits,
    words)`` packed planes (see the module docstring): a gate XORs
    whole planes, a noise site or a readout error flips the few bits
    its exact sparse sample hit, and a random measurement draws packed
    fair words.
    """
    if shots < 1:
        raise PlantError("need at least one shot to propagate")
    words = words_for(shots)
    valid = np.full(words, ~np.uint64(0), dtype=WORD)
    valid[-1] >>= np.uint64(64 * words - shots)
    planes = np.zeros((2 * num_qubits, words), dtype=WORD)
    raw = np.zeros((recording.measurements, words), dtype=WORD)
    reported = np.zeros((recording.measurements, words), dtype=WORD)
    row = 0
    for step in recording.steps:
        if isinstance(step, GateStep):
            apply_gate(planes, step)
        elif isinstance(step, NoiseStep):
            _apply_noise(planes, step, shots, rng)
        else:  # MeasureStep
            x = planes[2 * step.index]
            out = raw[row]
            if step.pivot_rows is None:
                # Deterministic reference outcome: the frame's X
                # component flips it; projection changes nothing.
                if step.reference_raw:
                    np.bitwise_xor(x, valid, out=out)
                else:
                    out[:] = x
            else:
                # Random reference outcome: every shot's outcome is a
                # fresh fair coin; shots landing on the branch the
                # reference did not take absorb the pivot stabilizer
                # into their frame.
                out[:] = rng.integers(0, 1 << 64, size=words,
                                      dtype=np.uint64)
                out &= valid
                flip = out ^ x
                if step.reference_raw:
                    flip ^= valid
                if flip.any():
                    planes[step.pivot_rows] ^= flip
            flips = _bernoulli_words(rng, shots, readout.p01)
            if readout.p10 != readout.p01:
                flips &= ~out
                flips |= _bernoulli_words(rng, shots, readout.p10) & out
            np.bitwise_xor(out, flips, out=reported[row])
            row += 1
    return raw, reported
